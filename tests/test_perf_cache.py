"""Tests for the memoized evaluation cache (repro.perf.cache)."""

import dataclasses
import enum
import gc
import hashlib
import math
from collections import OrderedDict
from functools import partial
from typing import Any, NamedTuple

import pytest

from repro.core import Evaluator
from repro.core.software import PRE_UPDATE
from repro.errors import OutOfMemoryError
from repro.machine.node import Device
from repro.npb.characterization import class_c_kernel
from repro.perf import cache as cache_module
from repro.perf.cache import EvalCache, fingerprint


# --------------------------------------------------------------------------
# fingerprints
# --------------------------------------------------------------------------


class TestFingerprint:
    def test_stable_across_calls(self):
        k = class_c_kernel("MG")
        assert fingerprint(k) == fingerprint(k)

    def test_identical_specs_share_fingerprints(self):
        assert fingerprint(class_c_kernel("MG")) == fingerprint(class_c_kernel("MG"))

    def test_different_specs_differ(self):
        assert fingerprint(class_c_kernel("MG")) != fingerprint(class_c_kernel("CG"))

    def test_dict_key_order_ignored(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})

    def test_scalar_types_distinguished(self):
        assert fingerprint(1) != fingerprint("1")
        assert fingerprint(1) != fingerprint(1.0)

    def test_enums_and_containers(self):
        assert fingerprint(Device.HOST) != fingerprint(Device.PHI0)
        assert fingerprint((1, 2)) != fingerprint([1, 2])

    def test_machine_fingerprint_matches_across_evaluators(self):
        assert Evaluator().machine_fingerprint == Evaluator().machine_fingerprint

    def test_software_stack_changes_fingerprint(self):
        assert (
            Evaluator().machine_fingerprint
            != Evaluator(software=PRE_UPDATE).machine_fingerprint
        )


# --------------------------------------------------------------------------
# the key pin: every branch of the canonical walk, byte for byte
# --------------------------------------------------------------------------


class _Colour(enum.Enum):
    RED = "r"


class _Level(enum.IntEnum):
    LOW = 1


class _Count(int):
    pass


class _Pair(NamedTuple):
    a: int
    b: Any


class _Row(tuple):
    pass


class _Stack(list):
    pass


@dataclasses.dataclass(frozen=True)
class _Frozen:
    x: int
    y: float = 0.5


@dataclasses.dataclass
class _Plain:
    name: str
    inner: _Frozen
    items: list = dataclasses.field(default_factory=list)


class _WithDict:
    def __init__(self):
        self.b = 2
        self.a = (1, "x")

    def scaled(self, k):
        return k * self.b


class _WithSlots:
    __slots__ = ("p", "q", "unset")

    def __init__(self):
        self.p = 1.5
        self.q = None


def _adder(a, b=2, *, c=3):
    return a + b + c


def _empty_cell_closure():
    late = 0

    def inner():
        return late

    del late  # the closure's cell is now empty
    return inner


def _key_corpus():
    """Objects reaching every rule of the canonical walk but arrays."""
    shared = [1, 2]
    cycle: list = [0]
    cycle.append(cycle)
    loop: dict = {}
    loop["self"] = loop
    return [
        # leaves
        None, True, 0, -7, "text", b"\x00raw", 1.5, -0.0, math.nan,
        math.inf, -math.inf, complex(1, -2), _Level.LOW, _Count(5),
        _Colour.RED,
        # containers
        {1: "a", "b": 2.0, (3, 4): None, None: [5], 2.5: _Level.LOW},
        OrderedDict([("z", 1), ("a", 2)]), {3, "x", (1, 2)},
        frozenset({2.5, "y"}), set(), _Pair(1, [2]), _Row((1, 2)),
        _Stack([3, 4]), (), [],
        # dataclasses
        _Frozen(1), _Plain("p", _Frozen(2, 0.25), [_Frozen(3)]),
        # callables
        partial(_adder, 1, c=4), _WithDict().scaled, _empty_cell_closure(),
        _adder, len, math.sqrt, _Frozen,
        # plain objects
        _WithDict(), _WithSlots(),
        # structure
        cycle, loop, [shared, (shared, {"again": shared})],
    ]


def _stub_code_digest(code):
    """A stand-in for :func:`repro.perf.cache._code_digest` that every
    Python version computes alike: bytecode differs between versions,
    and the pins below are about the walk around it."""
    return f"code:{code.co_name}"


def _pin(objects):
    blob = "\n".join(fingerprint(obj) for obj in objects)
    return hashlib.sha256(blob.encode()).hexdigest()


class TestKeyPin:
    """Keys are persisted (campaign journals, shared caches), so a
    rewrite of the walk must reproduce them byte for byte."""

    def test_corpus_keys_are_pinned(self, monkeypatch):
        monkeypatch.setattr(cache_module, "_code_digest", _stub_code_digest)
        assert _pin(_key_corpus()) == CORPUS_PIN
        # A second pass meets every type again, now through any per-type
        # memo the walk keeps.
        assert _pin(_key_corpus()) == CORPUS_PIN

    def test_array_keys_are_pinned(self):
        np = pytest.importorskip("numpy")
        sparse = pytest.importorskip("scipy.sparse")
        owned = np.arange(4.0)
        frozen = _bytes_backed(np, np.arange(3, dtype=np.int64))
        csr = sparse.csr_matrix(np.eye(3))
        corpus = [owned, frozen, csr, {"grid": owned, "m": csr}]
        assert _pin(corpus) == ARRAY_PIN
        assert _pin(corpus) == ARRAY_PIN


    def test_type_tables_stay_bounded(self, monkeypatch):
        """Classes made at run time are classified afresh once the
        per-type tables fill, and key as before."""
        monkeypatch.setattr(cache_module, "_MAX_TYPES", 8)
        monkeypatch.setattr(cache_module, "_LEAVES", {})
        monkeypatch.setattr(cache_module, "_RULES", {})
        for i in range(50):
            row = type(f"Row{i}", (tuple,), {})((i,))
            want = hashlib.sha256(f"Row{i}[int:{i};];".encode()).hexdigest()
            assert fingerprint(row) == want
            tables = len(cache_module._LEAVES) + len(cache_module._RULES)
            assert tables <= 8


#: sha256 of the corpus keys, one per line, as the walk produced them
#: before it kept per-type rules (array keys need numpy and scipy).
CORPUS_PIN = "a64d8b3f126a86236aebf7f707db4b15da53208f81d4170174adf25ddc8316ef"
ARRAY_PIN = "024f4a8231621aa2fe1a664491937d600ac3688029c89dc6184e598addb7e5ca"


# --------------------------------------------------------------------------
# the cache object
# --------------------------------------------------------------------------


class TestEvalCache:
    def test_miss_then_hit(self):
        c = EvalCache()
        key = c.key("native", 16)
        assert c.get(key) is None
        c.put(key, 42)
        assert c.get(key) == 42
        assert c.stats.misses == 1
        assert c.stats.hits == 1
        assert c.stats.hit_rate == pytest.approx(0.5)

    def test_get_or_compute_computes_once(self):
        c = EvalCache()
        calls = []

        def compute():
            calls.append(1)
            return "value"

        key = c.key("x")
        assert c.get_or_compute(key, compute) == "value"
        assert c.get_or_compute(key, compute) == "value"
        assert len(calls) == 1
        assert (c.stats.hits, c.stats.misses) == (1, 1)

    def test_exceptions_are_not_cached(self):
        c = EvalCache()
        key = c.key("boom")

        def compute():
            raise ValueError("boom")

        with pytest.raises(ValueError):
            c.get_or_compute(key, compute)
        assert key not in c
        assert c.stats.misses == 1

    def test_clear_resets(self):
        c = EvalCache()
        c.put(c.key(1), 1)
        c.get(c.key(1))
        c.clear()
        assert len(c) == 0
        assert c.stats.lookups == 0


# --------------------------------------------------------------------------
# callable fingerprints (rank programs)
# --------------------------------------------------------------------------


class TestCallableFingerprint:
    """Rank-program callables fingerprint by bytecode + bound state."""

    def test_same_function_stable(self):
        def f(x):
            return x + 1

        assert fingerprint(f) == fingerprint(f)

    def test_code_changes_distinguish(self):
        def f1(x):
            return x + 1

        def f2(x):
            return x + 2

        assert fingerprint(f1) != fingerprint(f2)

    def test_partial_args_distinguish(self):
        from functools import partial

        def f(a, b):
            return a + b

        assert fingerprint(partial(f, 1)) == fingerprint(partial(f, 1))
        assert fingerprint(partial(f, 1)) != fingerprint(partial(f, 2))
        assert fingerprint(partial(f, b=3)) != fingerprint(partial(f, b=4))

    def test_closure_state_distinguishes(self):
        def make(n):
            def g(x):
                return x + n

            return g

        assert fingerprint(make(3)) == fingerprint(make(3))
        assert fingerprint(make(1)) != fingerprint(make(2))

    def test_defaults_distinguish(self):
        def make(default):
            def g(x, n=default):
                return x + n

            return g

        assert fingerprint(make(1)) != fingerprint(make(2))

    def test_bound_methods_carry_instance_state(self):
        import dataclasses

        @dataclasses.dataclass
        class Scaler:
            factor: float

            def apply(self, x):
                return x * self.factor

        assert fingerprint(Scaler(2.0).apply) == fingerprint(Scaler(2.0).apply)
        assert fingerprint(Scaler(2.0).apply) != fingerprint(Scaler(3.0).apply)

    def test_numpy_arrays_fingerprint_by_content(self):
        np = pytest.importorskip("numpy")
        a = np.arange(8.0)
        b = np.arange(8.0)
        assert fingerprint(a) == fingerprint(b)
        b[3] = 99.0
        assert fingerprint(a) != fingerprint(b)
        assert fingerprint(a) != fingerprint(a.astype(np.float32))

    def test_memoized_code_digest_equals_a_fresh_one(self):
        """Equal code objects from two modules get one digest, and the
        memoized digest is the one a fresh computation gives."""
        import types

        from repro.perf.cache import _code_digest, _hash_code

        src = (
            "def main(nbytes, comm):\n"
            "    step = lambda r: (r + 1) % comm.size\n"
            "    yield from comm.sendrecv(step(comm.rank), comm.rank,"
            " nbytes=nbytes)\n"
        )
        codes = []
        for name in ("mod_a", "mod_b"):
            mod = types.ModuleType(name)
            exec(compile(src, f"{name}.py", "exec"), mod.__dict__)
            codes.append(mod.main.__code__)
        a, b = codes
        assert a == b and a is not b
        memo = _code_digest(a)
        assert _code_digest(b) == memo
        assert _hash_code(b) == memo
        assert _hash_code(a) == memo

    def test_code_digest_memo_never_answers_for_a_dead_code_object(self):
        """Code objects made and dropped in a loop reuse ids: each gets
        its own digest, and each leaves the memo when it dies."""
        memo = cache_module._CODE_DIGESTS
        gc.collect()
        size = len(memo)
        ids, digests = set(), set()
        for i in range(200):
            namespace: dict = {}
            exec(f"def f(x):\n    return x + {i}\n", namespace)
            code = namespace.pop("f").__code__
            oid = id(code)
            ids.add(oid)
            digest = cache_module._code_digest(code)
            assert digest == cache_module._hash_code(code)
            assert cache_module._code_digest(code) == digest
            assert oid in memo
            digests.add(digest)
            del code
            gc.collect()
            assert oid not in memo
        assert len(digests) == 200
        assert len(ids) < 200  # ids were reused while the memo was live
        assert len(memo) == size

    def test_stable_across_interpreters_and_hash_seeds(self, tmp_path):
        """The digest must survive hash randomization and process
        boundaries, or MpiJob memo keys would rot between runs."""
        import os
        import subprocess
        import sys
        import textwrap

        import repro

        script = tmp_path / "probe.py"
        script.write_text(textwrap.dedent(
            """
            from functools import partial
            from repro.perf.cache import fingerprint

            def halo(nbytes, comm):
                right = (comm.rank + 1) % comm.size
                yield from comm.sendrecv(right, right, nbytes=nbytes)

            print(fingerprint(partial(halo, 4096)))
            print(fingerprint({"a": 1, "b": (2.5, frozenset({"x", "y"}))}))
            """
        ))
        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        outs = []
        for seed in ("0", "424242"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src_dir)
            proc = subprocess.run(
                [sys.executable, str(script)],
                capture_output=True, text=True, env=env, check=True,
            )
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
        assert outs[0].strip()


# --------------------------------------------------------------------------
# frozen arrays: contents hashed once while their memory cannot change
# --------------------------------------------------------------------------


class _CountingHashlib:
    """Stands in for ``hashlib`` in repro.perf.cache and records the
    bytes each ``sha256`` call was given."""

    def __init__(self):
        self.hashed = []

    def sha256(self, data=b""):
        self.hashed.append(bytes(data))
        return hashlib.sha256(data)


@pytest.fixture
def hashes(monkeypatch):
    counter = _CountingHashlib()
    monkeypatch.setattr(cache_module, "hashlib", counter)
    return counter


def _bytes_backed(np, arr):
    return np.frombuffer(arr.tobytes(), dtype=arr.dtype)


class TestFrozenArrays:
    def test_bytes_backed_array_is_hashed_once(self, hashes):
        np = pytest.importorskip("numpy")
        arr = _bytes_backed(np, np.arange(12.0))
        keys = {fingerprint(arr) for _ in range(5)}
        assert hashes.hashed.count(arr.tobytes()) == 1
        # The memoized key is the key of an equal array hashed afresh.
        assert keys == {fingerprint(np.arange(12.0))}

    def test_views_are_hashed_once_under_their_own_shape(self, hashes):
        np = pytest.importorskip("numpy")
        arr = _bytes_backed(np, np.arange(12.0))
        tail, grid = arr[2:], arr[2:].reshape(2, 5)
        assert grid.base is not arr.base  # a chain of views down to bytes
        for view in (tail, grid):
            hashes.hashed.clear()
            keys = {fingerprint(view) for _ in range(3)}
            assert hashes.hashed.count(view.tobytes()) == 1
            assert keys == {fingerprint(view.copy())}
        assert f":{grid.shape}:" in cache_module._array_token(grid)
        assert fingerprint(grid) != fingerprint(tail)

    def test_reshaped_in_place_is_keyed_by_the_new_shape(self):
        np = pytest.importorskip("numpy")
        arr = _bytes_backed(np, np.arange(12.0))
        flat = fingerprint(arr)
        arr.shape = (3, 4)
        assert fingerprint(arr) != flat
        assert fingerprint(arr) == fingerprint(np.arange(12.0).reshape(3, 4))

    @pytest.mark.parametrize("read_only", [False, True])
    def test_array_owning_its_memory_is_hashed_every_call(
        self, hashes, read_only
    ):
        np = pytest.importorskip("numpy")
        arr = np.arange(12.0)
        arr.flags.writeable = not read_only
        before = fingerprint(arr)
        assert fingerprint(arr) == before
        assert hashes.hashed.count(arr.tobytes()) == 2
        arr.flags.writeable = True  # its owner may always flip the flag back
        arr[3] = -1.0
        arr.flags.writeable = not read_only
        assert fingerprint(arr) != before

    def test_structured_dtype_is_hashed_every_call(self, hashes):
        np = pytest.importorskip("numpy")
        arr = _bytes_backed(np, np.zeros(4, dtype=[("a", "f8")]))
        before = fingerprint(arr)
        assert fingerprint(arr) == before
        assert hashes.hashed.count(arr.tobytes()) == 2
        arr.dtype.names = ("b",)  # renames the fields in place
        assert fingerprint(arr) != before

    def test_dead_array_leaves_the_memo(self):
        np = pytest.importorskip("numpy")
        memo = cache_module._FROZEN_TOKENS
        gc.collect()
        size = len(memo)
        keys = set()
        for i in range(50):
            arr = _bytes_backed(np, np.full(8, float(i)))
            oid = id(arr)
            keys.add(fingerprint(arr))
            assert oid in memo
            # A later array may reuse this id; it must be hashed afresh.
            assert fingerprint(arr) == fingerprint(np.full(8, float(i)))
            del arr
            gc.collect()
            assert oid not in memo
        assert len(keys) == 50
        assert len(memo) == size


class TestSparseMatrices:
    def test_equal_matrices_key_equally(self):
        pytest.importorskip("scipy")
        from repro.npb.cg import make_matrix

        key = EvalCache().key
        m = make_matrix("S")
        # copy() drops the index-order flags tocsr() cached on m.
        assert key(m) == key(m.copy()) == key(m.copy().tocsr())
        assert key(partial(_job, m)) == key(partial(_job, m.copy()))

    def test_changed_value_or_format_keys_differently(self):
        pytest.importorskip("scipy")
        from repro.npb.cg import make_matrix

        key = EvalCache().key
        m = make_matrix("S")
        changed = m.copy()
        changed.data[0] += 1.0
        assert key(changed) != key(m)
        assert key(m.tocsc()) != key(m)

    def test_frozen_arrays_are_hashed_once(self, hashes):
        pytest.importorskip("scipy")
        from repro.npb.cg import make_matrix

        m = make_matrix("S")
        fingerprint(m)
        hashes.hashed.clear()
        fingerprint(m)
        assert m.data.tobytes() not in hashes.hashed


def _job(matrix, comm):
    yield from comm.barrier()
    return matrix.shape


class TestSpawnFingerprint:
    """`__main__` callables must share keys across process boundaries.

    An entry script imports as ``__main__`` in the parent but as
    ``__mp_main__`` inside ``spawn`` workers (and multi-host campaign
    workers re-import it again) — with the raw module name in the key,
    the same function would fingerprint differently on each side,
    silently splitting journal/cache keys.  Both aliases normalize to a
    token derived from the script's basename; main-module callables
    with no source file at all are refused loudly instead of mis-keyed.
    """

    def test_main_and_mp_main_normalize_identically(self):
        import types

        def probe(x):
            return x + 1

        prints = {}
        for module in ("__main__", "__mp_main__"):
            clone = types.FunctionType(
                probe.__code__,
                {"__file__": "/somewhere/entry.py"},
                probe.__name__,
            )
            clone.__module__ = module
            clone.__qualname__ = probe.__qualname__
            prints[module] = fingerprint(clone)
        assert prints["__main__"] == prints["__mp_main__"]

    def test_spawn_worker_computes_the_same_key(self, tmp_path):
        # The real thing: a script fingerprints one of its own functions
        # in-process and inside a spawn worker; the keys must agree.
        import os
        import subprocess
        import sys
        import textwrap

        import repro

        script = tmp_path / "spawnprobe.py"
        script.write_text(textwrap.dedent(
            """
            import multiprocessing as mp
            import sys

            from repro.perf.cache import fingerprint

            def probe(point, plan):
                return point * 2

            def compute(_):
                return fingerprint("campaign", probe)

            if __name__ == "__main__":
                ctx = mp.get_context("spawn")
                with ctx.Pool(1) as pool:
                    remote = pool.map(compute, [0])[0]
                local = fingerprint("campaign", probe)
                print(local)
                print(remote)
                sys.exit(0 if local == remote else 3)
            """
        ))
        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src_dir)
        proc = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, (
            f"spawn worker disagreed on the key:\n{proc.stdout}{proc.stderr}"
        )

    def test_sourceless_main_callable_is_refused(self):
        from repro.errors import ConfigError

        namespace = {}
        exec("def ephemeral(x):\n    return x", namespace)
        fn = namespace["ephemeral"]
        fn.__module__ = "__main__"
        with pytest.raises(ConfigError, match="importable module"):
            fingerprint(fn)


# --------------------------------------------------------------------------
# evaluator wiring
# --------------------------------------------------------------------------


class TestEvaluatorCaching:
    def test_native_repeat_hits(self):
        c = EvalCache()
        ev = Evaluator(cache=c)
        k = class_c_kernel("MG")
        m1 = ev.native(Device.HOST, k, 16)
        m2 = ev.native(Device.HOST, k, 16)
        assert m1 == m2
        assert (c.stats.hits, c.stats.misses) == (1, 1)

    def test_cached_equals_uncached(self):
        k = class_c_kernel("MG")
        cached = Evaluator(cache=EvalCache()).native(Device.PHI0, k, 177)
        plain = Evaluator().native(Device.PHI0, k, 177)
        assert cached == plain

    def test_distinct_params_miss(self):
        c = EvalCache()
        ev = Evaluator(cache=c)
        k = class_c_kernel("MG")
        ev.native(Device.HOST, k, 16)
        ev.native(Device.HOST, k, 32)
        ev.native(Device.PHI0, k, 177)
        assert (c.stats.hits, c.stats.misses) == (0, 3)

    def test_identical_machines_share_entries(self):
        c = EvalCache()
        k = class_c_kernel("MG")
        Evaluator(cache=c).native(Device.HOST, k, 16)
        Evaluator(cache=c).native(Device.HOST, k, 16)
        assert (c.stats.hits, c.stats.misses) == (1, 1)

    def test_machine_change_invalidates(self):
        c = EvalCache()
        k = class_c_kernel("MG")
        Evaluator(cache=c).native(Device.HOST, k, 16)
        # Same shared cache, different software stack: must miss.
        Evaluator(software=PRE_UPDATE, cache=c).native(Device.HOST, k, 16)
        assert (c.stats.hits, c.stats.misses) == (0, 2)

    def test_offload_repeat_hits(self):
        from repro.npb.mg_offload import offload_regions

        c = EvalCache()
        ev = Evaluator(cache=c)
        region = next(iter(offload_regions("C").values()))
        r1 = ev.offload(region)
        r2 = ev.offload(region)
        assert r1 == r2
        assert (c.stats.hits, c.stats.misses) == (1, 1)

    def test_infeasible_points_stay_failures(self):
        # A footprint beyond the Phi's 8 GB (the paper's FT-on-Phi case):
        # the failure must re-raise on every call, never be replayed as a
        # cached success.
        import dataclasses

        c = EvalCache()
        ev = Evaluator(cache=c)
        k = dataclasses.replace(class_c_kernel("FT"), footprint=int(10 * 2**30))
        for _ in range(2):
            with pytest.raises(OutOfMemoryError):
                ev.native(Device.PHI0, k, 177)
        assert c.stats.hits == 0
        assert c.stats.misses == 2
