"""Cross-codec contracts: every registered codec honours the same API."""

import numpy as np
import pytest

from repro.compression import CODEC_NAMES, get_codec
from repro.compression.base import (
    CompressionResult,
    StepCost,
    StepRole,
)
from repro.compression.bitio import pack_codes
from repro.datasets import DATASET_NAMES, get_dataset
from repro.errors import CompressionError, ConfigurationError


#: The paper's chain-shaped algorithms; the DAG extras (unlz4, mltc)
#: follow the cost/determinism contracts but not the s0..sN naming.
CHAIN_CODECS = ("tcomp32", "lz4", "tdic32")


@pytest.fixture(params=CODEC_NAMES)
def codec(request):
    return get_codec(request.param)


@pytest.fixture(params=CHAIN_CODECS)
def chain_codec(request):
    return get_codec(request.param)


class TestRegistry:
    def test_all_names_resolve(self):
        for name in CODEC_NAMES:
            assert get_codec(name).name == name

    def test_unknown_codec_rejected(self):
        with pytest.raises(ConfigurationError):
            get_codec("zstd")

    def test_options_forwarded(self):
        codec = get_codec("tdic32", index_bits=8)
        assert codec.index_bits == 8


class TestStepContract:
    def test_chain_steps_ordered_s0_first(self, chain_codec):
        ids = chain_codec.step_ids()
        assert ids[0] == "s0"
        assert ids == tuple(f"s{i}" for i in range(len(ids)))

    def test_first_step_reads_last_writes(self, codec):
        steps = codec.steps()
        assert steps[0].role is StepRole.READ
        assert steps[-1].role is StepRole.WRITE

    def test_stateful_codecs_have_state_update(self, codec):
        roles = {spec.role for spec in codec.steps()}
        assert (StepRole.STATE_UPDATE in roles) == codec.stateful

    def test_step_dependencies_form_a_valid_dag(self, codec):
        """Every codec's declared step graph passes the decomposer's
        validation: known producers, topological order, unique sink."""
        from repro.core.decomposition import validate_step_dependencies

        validate_step_dependencies(
            codec.name, codec.step_ids(), codec.step_dependencies()
        )

    def test_chain_codecs_declare_chain_dependencies(self, chain_codec):
        ids = chain_codec.step_ids()
        expected = {
            step_id: (() if index == 0 else (ids[index - 1],))
            for index, step_id in enumerate(ids)
        }
        assert dict(chain_codec.step_dependencies()) == expected

    def test_unlz4_is_a_fork_join(self):
        codec = get_codec("unlz4")
        assert dict(codec.step_dependencies()) == {
            "d0": (), "d1": ("d0",), "d2": ("d0",), "d3": ("d1", "d2"),
        }

    def test_mltc_fans_out_per_channel(self):
        codec = get_codec("mltc", channels=3)
        assert dict(codec.step_dependencies()) == {
            "m0": (),
            "c1": ("m0",), "c2": ("m0",), "c3": ("m0",),
            "mz": ("c1", "c2", "c3"),
        }


class TestCostContract:
    @pytest.mark.parametrize("dataset_name", DATASET_NAMES)
    def test_costs_cover_all_steps(self, codec, dataset_name):
        data = get_dataset(dataset_name).generate(4096, seed=3)
        result = codec.compress(data)
        assert set(result.step_costs) == set(codec.step_ids())

    def test_costs_non_negative(self, codec, rovio_data):
        result = codec.compress(rovio_data)
        for cost in result.step_costs.values():
            assert cost.instructions >= 0
            assert cost.memory_accesses >= 0
            assert cost.output_bytes >= 0

    def test_first_step_input_is_batch(self, chain_codec, rovio_data):
        result = chain_codec.compress(rovio_data)
        assert result.step_costs["s0"].input_bytes == len(rovio_data)

    def test_last_step_output_is_payload(self, chain_codec, rovio_data):
        result = chain_codec.compress(rovio_data)
        last = chain_codec.step_ids()[-1]
        assert result.step_costs[last].output_bytes == result.output_size

    def test_unlz4_models_the_decoder_side(self, rovio_data):
        """The decompression pipeline's parse step consumes the
        compressed stream and its merge step emits the decoded batch."""
        result = get_codec("unlz4").compress(rovio_data)
        assert result.step_costs["d0"].input_bytes == result.output_size
        assert result.step_costs["d3"].output_bytes == len(rovio_data)

    def test_deterministic_costs(self, rovio_data, codec):
        first = get_codec(codec.name).compress(rovio_data)
        second = get_codec(codec.name).compress(rovio_data)
        assert first.payload == second.payload
        for step in first.step_costs:
            assert (
                first.step_costs[step].instructions
                == second.step_costs[step].instructions
            )

    def test_total_instructions_positive(self, codec, rovio_data):
        result = codec.compress(rovio_data)
        costs = result.step_costs.values()
        assert sum(cost.instructions for cost in costs) > 0
        assert sum(cost.memory_accesses for cost in costs) > 0


class TestOutputSize:
    """Codecs report ``output_size`` without packing; the payload, built
    on first read, measures exactly that and round-trips."""

    @pytest.mark.parametrize("dataset_name", DATASET_NAMES)
    def test_output_size_is_payload_length(self, codec, dataset_name):
        rng = np.random.default_rng(sum(map(ord, codec.name + dataset_name)))
        dataset = get_dataset(dataset_name)
        decoder = get_codec(codec.name)
        last = codec.step_ids()[-1]
        for _ in range(3):
            seed, size = rng.integers(0, 1 << 16), rng.integers(64, 20_000)
            data = dataset.generate(int(size), seed=int(seed))
            result = codec.compress(data)
            if codec.name != "unlz4":  # its sink emits the decoded batch
                assert result.step_costs[last].output_bytes == result.output_size
            assert len(result.payload) == result.output_size
            assert decoder.decompress(result.payload) == data

    @pytest.fixture
    def packs(self, monkeypatch):
        """Every packer a codec hands to :class:`CompressionResult`, and
        how often each ran; a result built from eager bytes fails."""
        runs = {}
        init = CompressionResult.__init__

        def counting_init(self, payload, *args, **kwargs):
            assert callable(payload), "a codec packed its payload eagerly"
            key = len(runs)
            runs[key] = 0

            def packer():
                runs[key] += 1
                return payload()

            init(self, packer, *args, **kwargs)

        monkeypatch.setattr(CompressionResult, "__init__", counting_init)
        return runs

    @pytest.fixture
    def packing_calls(self, monkeypatch):
        """Calls of the routines that build payload bytes: ``pack_codes``
        in tcomp32, tdic32 and mltc, and lz4's sequence emitter."""
        from repro.compression import lz4, mltc, tcomp32, tdic32

        calls = []

        def counting_pack_codes(chunks, widths):
            calls.append("pack_codes")
            return pack_codes(chunks, widths)

        emit_sequence = lz4.Lz4._emit_sequence

        def counting_emit_sequence(*args):
            calls.append("_emit_sequence")
            return emit_sequence(*args)

        for module in (tcomp32, tdic32, mltc):
            monkeypatch.setattr(module, "pack_codes", counting_pack_codes)
        monkeypatch.setattr(
            lz4.Lz4, "_emit_sequence", staticmethod(counting_emit_sequence)
        )
        return calls

    def test_profiling_packs_no_payload(self, packs, packing_calls):
        from repro.core.profiler import profile_workload

        # session's 64 KiB micro batches and traced's 16 KiB sensor ones
        for dataset_name, batch_bytes in (("micro", 65536), ("sensor", 16384)):
            for name in CODEC_NAMES:
                profile_workload(
                    get_codec(name), get_dataset(dataset_name), batch_bytes,
                    batches=2,
                )
        # one warm-up and two profiled batches per codec and workload;
        # unlz4's results wrap lz4's
        assert len(packs) >= 2 * 3 * len(CODEC_NAMES)
        assert set(packs.values()) == {0}
        assert packing_calls == []
        # the counters do see a payload that someone reads
        for name in CODEC_NAMES:
            before = len(packing_calls)
            get_codec(name).compress(bytes(64)).payload
            assert len(packing_calls) > before, name

    def test_reading_the_payload_packs_once(self, codec, packs, rovio_data):
        result = codec.compress(rovio_data)
        assert set(packs.values()) == {0}
        first = result.payload
        assert set(packs.values()) == {1}  # unlz4's packer runs lz4's
        assert result.payload is first
        assert set(packs.values()) == {1}

    @pytest.mark.parametrize("name", ["mltc", "lz4", "unlz4"])
    def test_codec_packer_of_the_wrong_size_raises(
        self, name, monkeypatch, rovio_data
    ):
        from repro.compression import lz4, mltc

        # mltc packs a byte too many; lz4 counts a byte more for every
        # length field it sizes, so its output_size overshoots
        monkeypatch.setattr(
            mltc, "pack_codes", lambda *args: pack_codes(*args) + b"\0"
        )
        extension_bytes = lz4._extension_bytes
        monkeypatch.setattr(
            lz4, "_extension_bytes", lambda length: extension_bytes(length) + 1
        )
        result = get_codec(name).compress(rovio_data[:2048])
        with pytest.raises(CompressionError):
            result.payload

    def test_packer_of_the_wrong_size_raises(self):
        result = CompressionResult(
            payload=lambda: b"abc", input_size=8, step_costs={},
            output_size=4,
        )
        assert result.output_size == 4
        with pytest.raises(CompressionError):
            result.payload


class TestStepCost:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            StepCost(instructions=-1, memory_accesses=0, input_bytes=0,
                     output_bytes=0)

    def test_operational_intensity(self):
        cost = StepCost(instructions=100, memory_accesses=4, input_bytes=1,
                        output_bytes=1)
        assert cost.operational_intensity == 25.0

    def test_zero_accesses_returns_instructions(self):
        cost = StepCost(instructions=50, memory_accesses=0, input_bytes=1,
                        output_bytes=1)
        assert cost.operational_intensity == 50

    def test_merged_sums_work(self):
        a = StepCost(instructions=10, memory_accesses=1, input_bytes=100,
                     output_bytes=150)
        b = StepCost(instructions=30, memory_accesses=2, input_bytes=150,
                     output_bytes=80)
        merged = StepCost.merged([a, b])
        assert merged.instructions == 40
        assert merged.memory_accesses == 3
        assert merged.input_bytes == 100   # first step's input
        assert merged.output_bytes == 80   # last step's output

    def test_merged_empty_rejected(self):
        with pytest.raises(ValueError):
            StepCost.merged([])


class TestCompressionRatios:
    """Relative compressibility across datasets matches each codec's
    design (the paper's dataset-selection rationale)."""

    def test_tdic32_prefers_symbol_duplication(self):
        rovio = get_dataset("rovio").generate(16384, seed=1)
        stock = get_dataset("stock").generate(16384, seed=1)
        ratio_rovio = get_codec("tdic32").compress(rovio).compression_ratio
        ratio_stock = get_codec("tdic32").compress(stock).compression_ratio
        assert ratio_rovio > ratio_stock

    def test_lz4_prefers_vocabulary_duplication(self):
        sensor = get_dataset("sensor").generate(16384, seed=1)
        stock = get_dataset("stock").generate(16384, seed=1)
        ratio_sensor = get_codec("lz4").compress(sensor).compression_ratio
        ratio_stock = get_codec("lz4").compress(stock).compression_ratio
        assert ratio_sensor > ratio_stock

    def test_tcomp32_prefers_narrow_range(self):
        narrow = get_dataset("micro", dynamic_range=256).generate(8192, seed=1)
        wide = get_dataset("micro", dynamic_range=1 << 31).generate(8192, seed=1)
        codec = get_codec("tcomp32")
        assert (
            codec.compress(narrow).compression_ratio
            > codec.compress(wide).compression_ratio
        )
