"""Codec registry: built-ins, lazy extras and entry-point discovery.

The paper's three codecs (``tcomp32``, ``lz4``, ``tdic32``) are imported
eagerly — they are the public surface and the golden bench grid. Every
other codec is *lazy*: the registry holds a ``"module:Class"`` import
spec and resolves it the first time the codec is requested, so importing
:mod:`repro.compression` stays cheap and a broken extra only fails when
actually used.

Out-of-tree codecs join the same namespace two ways, neither of which
requires editing this package:

* at runtime, by calling :func:`register_codec` (usable as a class
  decorator) with any :class:`~repro.compression.base.StreamCompressor`
  subclass whose ``name`` attribute is set;
* at install time, by declaring a ``cstream.codecs`` entry point::

      [project.entry-points."cstream.codecs"]
      mycodec = "mypackage.mycodec:MyCodec"

  Entry points are discovered on the first :func:`codec_names` /
  :func:`get_codec` call and recorded as lazy specs, so listing codecs
  never imports a plugin — only selecting one does.

Registered names surface everywhere a codec can be named: ``cstream``
CLI choices, :class:`~repro.bench.harness.WorkloadSpec`, the bench grid
and the adaptive/chaos sessions all resolve through :func:`get_codec`.
"""

from __future__ import annotations

import importlib
from typing import Dict, Tuple, Type

from repro.compression.base import StreamCompressor
from repro.compression.lz4 import Lz4
from repro.compression.tcomp32 import Tcomp32
from repro.compression.tdic32 import Tdic32
from repro.errors import ConfigurationError

__all__ = [
    "ENTRY_POINT_GROUP",
    "codec_names",
    "get_codec",
    "register_codec",
]

#: Packaging entry-point group scanned for out-of-tree codecs.
ENTRY_POINT_GROUP = "cstream.codecs"

#: The paper's algorithms, in the paper's order (kept first in listings).
_PAPER_ORDER = (Tcomp32.name, Lz4.name, Tdic32.name)

_REGISTRY: Dict[str, Type[StreamCompressor]] = {
    Tcomp32.name: Tcomp32,
    Tdic32.name: Tdic32,
    Lz4.name: Lz4,
}

#: name -> "module:Class" specs resolved on first use.
_LAZY: Dict[str, str] = {
    "unlz4": "repro.compression.unlz4:UnLz4",
    "mltc": "repro.compression.mltc:Mltc",
}

_entry_points_scanned = False


def register_codec(codec_class: Type[StreamCompressor]) -> Type[StreamCompressor]:
    """Register a compressor class under its ``name`` attribute.

    Returns the class, so it can be used as a decorator::

        @register_codec
        class MyCodec(StatelessCompressor):
            name = "mycodec"
            ...

    Re-registering the same class is a no-op; a *different* class under
    an existing name is rejected, because silently shadowing a codec
    would change what every profile and plan in the session means.
    """
    name = getattr(codec_class, "name", "")
    if not name:
        raise ConfigurationError(
            f"codec class {codec_class.__name__} has no 'name' attribute; "
            "set one before registering"
        )
    existing = _REGISTRY.get(name)
    if existing is not None and existing is not codec_class:
        raise ConfigurationError(
            f"codec {name!r} is already registered by "
            f"{existing.__module__}.{existing.__qualname__}"
        )
    _REGISTRY[name] = codec_class
    _LAZY.pop(name, None)
    return codec_class


def _scan_entry_points() -> None:
    """Record ``cstream.codecs`` entry points as lazy import specs.

    Discovery is metadata-only (no plugin code runs); resolution happens
    in :func:`get_codec`. Installed names never shadow built-ins or an
    explicit :func:`register_codec` call.
    """
    global _entry_points_scanned
    if _entry_points_scanned:
        return
    _entry_points_scanned = True
    from importlib import metadata

    try:
        entries = metadata.entry_points(group=ENTRY_POINT_GROUP)
    except TypeError:  # pragma: no cover - Python 3.9 has no group=
        entries = metadata.entry_points().get(ENTRY_POINT_GROUP, ())
    except Exception:  # pragma: no cover - corrupt install metadata
        return
    for entry in entries:
        if entry.name in _REGISTRY or entry.name in _LAZY:
            continue
        _LAZY[entry.name] = entry.value


def _resolve_lazy(name: str) -> Type[StreamCompressor]:
    spec = _LAZY[name]
    module_name, _, attribute = spec.partition(":")
    try:
        module = importlib.import_module(module_name)
        codec_class = getattr(module, attribute)
    except (ImportError, AttributeError) as error:
        raise ConfigurationError(
            f"codec {name!r} is registered as {spec!r} but failed to "
            f"load: {error}"
        )
    if not (isinstance(codec_class, type)
            and issubclass(codec_class, StreamCompressor)):
        raise ConfigurationError(
            f"codec {name!r} resolved to {codec_class!r}, which is not a "
            "StreamCompressor subclass"
        )
    if getattr(codec_class, "name", "") != name:
        raise ConfigurationError(
            f"codec {name!r} resolved to class named "
            f"{getattr(codec_class, 'name', '')!r}; entry-point name and "
            "class name attribute must agree"
        )
    return register_codec(codec_class)


def codec_names() -> Tuple[str, ...]:
    """All registered codec names: the paper's three first, then every
    extra (lazy built-ins, entry points, runtime registrations) sorted."""
    _scan_entry_points()
    extras = sorted(
        (set(_REGISTRY) | set(_LAZY)) - set(_PAPER_ORDER)
    )
    return _PAPER_ORDER + tuple(extras)


def get_codec(name: str, **options) -> StreamCompressor:
    """Instantiate a codec by registry name.

    ``options`` are forwarded to the codec constructor (e.g.
    ``get_codec("tdic32", index_bits=14)``).
    """
    _scan_entry_points()
    codec_class = _REGISTRY.get(name)
    if codec_class is None:
        if name in _LAZY:
            codec_class = _resolve_lazy(name)
        else:
            known = ", ".join(codec_names())
            raise ConfigurationError(
                f"unknown codec {name!r}; known codecs: {known}"
            )
    return codec_class(**options)
