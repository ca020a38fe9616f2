"""Memoized model-evaluation cache.

The same (machine, kernel, mode, params) point is priced repeatedly
across figures — Fig 19 and Fig 25 both evaluate NPB MG native on the
host and the Phi, every decomposition sweep re-prices its best point,
and interactive use re-renders whole figures.  All evaluations are pure
functions of their full specification, so they can be priced once and
replayed.

Keys are *stable fingerprints*: the specification objects (frozen
dataclasses, enums, primitive containers) are recursively canonicalised
into a byte string and hashed with SHA-256.  Object identity never
enters the key, so two independently built but identical machine specs
share cache entries — and any change to the machine spec (a different
node, software stack, or preset parameter) changes the fingerprint and
invalidates the cached points naturally.

The same fingerprints scale from single evaluations to whole campaigns:
:mod:`repro.campaign` fingerprints (campaign spec, point) pairs with
this module's :func:`fingerprint` to key its on-disk journal, and
:meth:`EvalCache.warm` replays a journal back into a cache so resumed
campaigns dedupe in-flight points against prior runs.
"""

from __future__ import annotations

import functools
import hashlib
import os
import weakref
from dataclasses import dataclass, fields
from enum import Enum
from typing import Any, Callable, Dict, Iterable, Iterator, Optional, Set, Tuple

__all__ = ["CacheStats", "EvalCache", "fingerprint"]


# ==========================================================================
# Stable fingerprints
# ==========================================================================


def _hash_code(code: Any) -> str:
    """A SHA-256 digest of a code object, stable across interpreter runs.

    Covers the pieces that define behaviour — name, argument counts,
    bytecode, referenced names and constants (recursing into nested code
    objects) — and nothing address- or hash-seed-dependent, so a rank
    program fingerprints identically in every process running the same
    Python version.
    """
    h = hashlib.sha256()
    h.update(code.co_name.encode())
    h.update(
        f"{code.co_argcount}:{code.co_posonlyargcount}:"
        f"{code.co_kwonlyargcount}:{code.co_flags}".encode()
    )
    h.update(code.co_code)
    h.update(";".join(code.co_names + code.co_varnames).encode())
    for const in code.co_consts:
        if isinstance(const, type(code)):
            h.update(_code_digest(const).encode())
        elif isinstance(const, frozenset):
            # Iteration order is hash-seed-dependent; sort for stability.
            h.update(repr(sorted(const, key=repr)).encode())
        else:
            h.update(repr(const).encode())
    return h.hexdigest()


#: Digests of live code objects (see :func:`_code_digest`) by ``id``: a
#: weak reference to the code object and its digest.
_CODE_DIGESTS: Dict[int, Tuple[Any, str]] = {}


def _code_digest(code: Any) -> str:
    """:func:`_hash_code`, memoized on the code object's identity.

    Code objects are immutable, so a live one's digest never changes.
    The entry holds a weak reference, checked on every hit so that a
    reused ``id`` never answers, and dropped when the code object dies.
    An identity lookup costs a dict probe, where a memo keyed on the
    code object itself would hash its bytecode and constants per call.
    """
    oid = id(code)
    entry = _CODE_DIGESTS.get(oid)
    if entry is not None and entry[0]() is code:
        return entry[1]
    digest = _hash_code(code)
    ref = weakref.ref(code, functools.partial(_forget, _CODE_DIGESTS, oid))
    _CODE_DIGESTS[oid] = (ref, digest)
    return digest


def _module_token(obj: Any) -> str:
    """The module part of a callable's fingerprint, spawn-normalized.

    The entry script imports as ``__main__`` in the parent process but
    as ``__mp_main__`` inside ``spawn`` workers (and as its plain module
    name on remote hosts that import it) — so keying on the raw
    ``__module__`` would give the *same function* different cache keys
    on different sides of a process boundary, silently defeating the
    shared journal/cache keys the campaign layer depends on.  Both
    aliases normalize to ``__entry__[<script basename>]``, which is
    identical in parent and worker.  A main-module callable with no
    resolvable source file (``exec``/interactive) cannot be normalized
    and is refused loudly rather than mis-keyed.
    """
    module = getattr(obj, "__module__", "?")
    if module not in ("__main__", "__mp_main__"):
        return str(module)
    src = getattr(obj, "__globals__", {}).get("__file__")
    if not src:
        from repro.errors import ConfigError

        raise ConfigError(
            f"cannot fingerprint {getattr(obj, '__qualname__', obj)!r}: it is "
            f"defined in {module} with no source file, so its cache key "
            "would differ across spawn workers. Move it into an importable "
            "module (or run the defining script as a file, not exec/stdin)."
        )
    return f"__entry__[{os.path.basename(src)}]"


#: Tokens of frozen arrays (see :func:`_array_token`) by ``id``: a weak
#: reference to the array, the dtype object, shape and strides the token
#: was built from, and the token.  The weakref's callback drops the entry
#: when the array dies, before its ``id`` can be reused.
_FROZEN_TOKENS: Dict[int, Tuple[Any, Any, Any, Any, str]] = {}


def _frozen(arr: Any) -> bool:
    """True when ``arr``'s memory is an immutable ``bytes`` object.

    numpy refuses ``flags.writeable = True`` on an array whose ``.base``
    chain ends in ``bytes``, and on every view of it, so no owner can
    change its contents.  A read-only array that owns its memory is not
    frozen: its owner can flip the flag back and write.  A structured
    dtype is not frozen either, since its field names can be renamed in
    place.
    """
    base = arr
    while base is not None and not isinstance(base, bytes):
        base = getattr(base, "base", None)
    return base is not None and getattr(arr.dtype, "names", None) is None


def _array_token(arr: Any) -> str:
    """``nd:dtype:shape:digest;`` for an array duck type (numpy without
    importing numpy): problem matrices key NPB job memos by content.

    A frozen array's token is computed once and memoized on the object,
    checked against a weak reference (so a reused ``id`` never answers)
    and against the dtype object, shape and strides, which numpy lets an
    owner reassign in place.  Every other array is hashed on every call.
    """
    frozen = _frozen(arr)
    oid = id(arr)
    if frozen:
        entry = _FROZEN_TOKENS.get(oid)
        if (
            entry is not None
            and entry[0]() is arr
            and entry[1] is arr.dtype
            and entry[2:4] == (arr.shape, arr.strides)
        ):
            return entry[4]
    digest = hashlib.sha256(arr.tobytes()).hexdigest()
    token = f"nd:{arr.dtype}:{getattr(arr, 'shape', ())}:{digest};"
    if frozen:
        ref = weakref.ref(arr, functools.partial(_forget, _FROZEN_TOKENS, oid))
        _FROZEN_TOKENS[oid] = (ref, arr.dtype, arr.shape, arr.strides, token)
    return token


def _forget(memo: Dict[int, Any], oid: int, ref: Any) -> None:
    """Weakref callback: drop a dead object's entry from an identity
    memo, unless the entry was replaced."""
    if memo.get(oid, (None,))[0] is ref:
        del memo[oid]


#: Per leaf type, the prefix of its token ``<prefix><repr>;``: ``None``
#: and the bool, int, str and bytes types under their own names, float
#: and complex types under ``float``/``complex`` (see :func:`_rule_of`).
_LEAVES: Dict[type, str] = {}

#: Per non-leaf type, the walk of its instances (see :func:`_rule_of`).
_RULES: Dict[type, Callable[[Any, list, Set[int]], None]] = {}

#: Types classified before both tables start over, so that classes made
#: at run time cannot pile up in them.
_MAX_TYPES = 4096


def _canonical(obj: Any, out: list, _seen: Optional[Set[int]] = None) -> None:
    """Append a canonical token stream for ``obj`` to ``out``.

    Handles the vocabulary our specs are written in: primitives, enums,
    frozen dataclasses, mappings, sequences, arrays, callables (down to
    their bytecode, defaults and closure state — so a rank program is a
    first-class cache key) and plain objects (via their attribute dict).
    Floats use ``repr`` so equal values fingerprint equally regardless of
    how they were computed.

    ``_seen`` guards the *current recursion path* against cycles: an
    object is marked only while its subtree is being walked, so a DAG
    that shares one sub-object fingerprints identically to an equal tree
    built from copies.
    """
    cls = type(obj)
    prefix = _LEAVES.get(cls)
    if prefix is not None:
        out.append(f"{prefix}{obj!r};")
        return
    rule = _RULES.get(cls)
    if rule is None:
        rule = _rule_of(cls)
        if rule is None:  # a leaf type, met for the first time
            out.append(f"{_LEAVES[cls]}{obj!r};")
            return
    seen = set() if _seen is None else _seen
    oid = id(obj)
    if oid in seen:
        out.append("cycle;")
        return
    seen.add(oid)
    rule(obj, out, seen)
    seen.discard(oid)


def _rule_of(cls: type) -> Optional[Callable[[Any, list, Set[int]], None]]:
    """Classify ``cls`` once, in the walk's rule order: file a leaf type's
    prefix in :data:`_LEAVES` (and return None), or file and return the
    walk of its instances in :data:`_RULES`.

    Leaves, floats, complex numbers, enums, dataclasses, mappings,
    sequences and sets come first in that order, and each is decided by
    the type alone.  Every other type (classes among them) walks with
    :func:`_walk_object`, whose rules ask each object: an object can
    carry an array's ``dtype``/``tobytes`` or a callable's
    ``__func__``/``__code__`` whatever its type.
    """
    if len(_LEAVES) + len(_RULES) >= _MAX_TYPES:
        _LEAVES.clear()
        _RULES.clear()
    if cls is type(None) or issubclass(cls, (bool, int, str, bytes)):
        _LEAVES[cls] = f"{cls.__name__}:"
        return None
    if issubclass(cls, (float, complex)):
        _LEAVES[cls] = "float:" if issubclass(cls, float) else "complex:"
        return None
    rule: Callable[[Any, list, Set[int]], None]
    if issubclass(cls, Enum):
        rule = _walk_enum
    elif issubclass(cls, type):
        rule = _walk_object
    elif hasattr(cls, "__dataclass_fields__"):
        rule = _dataclass_walk(cls)
    elif issubclass(cls, dict):
        rule = _walk_mapping
    elif issubclass(cls, (tuple, list)):
        rule = _sequence_walk(cls)
    elif issubclass(cls, (set, frozenset)):
        rule = _walk_set
    else:
        rule = _walk_object
    _RULES[cls] = rule
    return rule


def _walk_items(items: Iterable[Any], out: list, seen: Set[int]) -> None:
    """Each of ``items`` in turn, leaves appended inline."""
    leaves = _LEAVES
    for item in items:
        prefix = leaves.get(type(item))
        if prefix is None:
            _canonical(item, out, seen)
        else:
            out.append(f"{prefix}{item!r};")


def _walk_enum(obj: Any, out: list, seen: Set[int]) -> None:
    out.append(f"enum:{type(obj).__name__}.{obj.name};")


def _dataclass_walk(cls: type) -> Callable[[Any, list, Set[int]], None]:
    head = f"dc:{cls.__name__}("
    labels = tuple((f"{f.name}=", f.name) for f in fields(cls))
    leaves = _LEAVES

    def walk(obj: Any, out: list, seen: Set[int]) -> None:
        out.append(head)
        for label, name in labels:
            out.append(label)
            value = getattr(obj, name)
            prefix = leaves.get(type(value))
            if prefix is None:
                _canonical(value, out, seen)
            else:
                out.append(f"{prefix}{value!r};")
        out.append(");")

    return walk


def _walk_mapping(obj: Any, out: list, seen: Set[int]) -> None:
    out.append("map{")
    leaves = _LEAVES
    for k in sorted(obj, key=repr):
        prefix = leaves.get(type(k))
        if prefix is None:
            _canonical(k, out, seen)
        else:
            out.append(f"{prefix}{k!r};")
        out.append("->")
        value = obj[k]
        prefix = leaves.get(type(value))
        if prefix is None:
            _canonical(value, out, seen)
        else:
            out.append(f"{prefix}{value!r};")
    out.append("};")


def _sequence_walk(cls: type) -> Callable[[Any, list, Set[int]], None]:
    head = f"{cls.__name__}["

    def walk(obj: Any, out: list, seen: Set[int]) -> None:
        out.append(head)
        _walk_items(obj, out, seen)
        out.append("];")

    return walk


def _walk_set(obj: Any, out: list, seen: Set[int]) -> None:
    out.append("set{")
    _walk_items(sorted(obj, key=repr), out, seen)
    out.append("};")


def _walk_object(obj: Any, out: list, seen: Set[int]) -> None:
    """The rules an object decides: arrays, callables, sparse matrices,
    then plain objects."""
    if hasattr(obj, "dtype") and hasattr(obj, "tobytes"):
        out.append(_array_token(obj))
    elif isinstance(obj, functools.partial):
        out.append("partial(")
        _canonical(obj.func, out, seen)
        _canonical(obj.args, out, seen)
        _canonical(obj.keywords, out, seen)
        out.append(");")
    elif callable(obj) and getattr(obj, "__func__", None) is not None:
        out.append("bound(")
        _canonical(obj.__func__, out, seen)
        _canonical(obj.__self__, out, seen)
        out.append(");")
    elif callable(obj) and getattr(obj, "__code__", None) is not None:
        # Python functions key by *behaviour*: bytecode digest, defaults
        # and closure contents — not memory addresses — so the same rank
        # program fingerprints identically across interpreter runs while
        # any edit to its body or captured state changes the key.
        module = _module_token(obj)
        qualname = getattr(obj, "__qualname__", repr(obj))
        out.append(f"fn:{module}.{qualname}(code:{_code_digest(obj.__code__)};")
        _canonical(getattr(obj, "__defaults__", None), out, seen)
        _canonical(getattr(obj, "__kwdefaults__", None), out, seen)
        for cell in getattr(obj, "__closure__", None) or ():
            try:
                contents = cell.cell_contents
            except ValueError:
                out.append("cell:empty;")
            else:
                _canonical(contents, out, seen)
        out.append(");")
    elif callable(obj):
        # C-level callables have no inspectable code: identity of their
        # code location is the best stable key available.
        module = _module_token(obj)
        qualname = getattr(obj, "__qualname__", repr(obj))
        out.append(f"fn:{module}.{qualname};")
    elif type(obj).__module__.startswith("scipy.sparse.") and hasattr(obj, "indptr"):
        # A compressed scipy sparse matrix (CSR, CSC, BSR) keys by its
        # contents.  Its __dict__ also holds index-order flags scipy
        # caches lazily, which would key equal matrices differently.
        out.append(f"sparse:{type(obj).__name__}:{obj.format}:{obj.shape}(")
        for arr in (obj.data, obj.indices, obj.indptr):
            out.append(_array_token(arr))
        out.append(");")
    else:
        # Plain objects (e.g. MaiaNode, Processor facades): class name plus
        # their attribute dict, covering both __dict__ and __slots__.
        out.append(f"obj:{type(obj).__name__}(")
        state = getattr(obj, "__dict__", None)
        if state is None:
            slots = getattr(type(obj), "__slots__", ())
            state = {s: getattr(obj, s) for s in slots if hasattr(obj, s)}
        for k in sorted(state):
            out.append(f"{k}=")
            _canonical(state[k], out, seen)
        out.append(");")


def fingerprint(*objects: Any) -> str:
    """A stable SHA-256 hex digest of the canonical form of ``objects``."""
    out: list = []
    seen: Set[int] = set()
    for obj in objects:
        _canonical(obj, out, seen)
    return hashlib.sha256("".join(out).encode()).hexdigest()


# ==========================================================================
# The cache
# ==========================================================================


@dataclass
class CacheStats:
    """Hit/miss counters for one :class:`EvalCache`."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
        }


_MISSING = object()


class EvalCache:
    """An unbounded memo cache for model evaluations.

    Values are whatever the evaluation produced (typically an immutable
    :class:`~repro.core.results.Measurement`); keys are fingerprints
    built with :meth:`key`.  Figure and campaign working sets are small,
    so nothing is ever evicted.
    """

    def __init__(self) -> None:
        self.stats = CacheStats()
        self._data: Dict[str, Any] = {}

    # ------------------------------------------------------------- keying

    def key(self, *parts: Any) -> str:
        """Fingerprint ``parts`` into a cache key."""
        return fingerprint(parts)

    # ------------------------------------------------------------- access

    def get(self, key: str, default: Any = None) -> Any:
        """Look up ``key``, counting a hit or a miss."""
        value = self._data.get(key, _MISSING)
        if value is _MISSING:
            self.stats.misses += 1
            return default
        self.stats.hits += 1
        return value

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` under ``key``."""
        self._data[key] = value

    def warm(self, pairs: Iterable[Tuple[str, Any]]) -> int:
        """Preload entries without touching the hit/miss counters.

        The campaign runner's journal-replay path: resumed points enter
        the cache as prior state, not as this run's traffic, so
        :attr:`stats` keeps meaning "what did *this* run compute vs
        reuse".  Returns the number of keys that were actually new.
        """
        fresh = 0
        for key, value in pairs:
            if key not in self._data:
                fresh += 1
            self._data[key] = value
        return fresh

    def get_or_compute(self, key: str, compute: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, computing and storing on miss.

        Exceptions from ``compute`` propagate and nothing is stored, so
        infeasible points (e.g. out-of-memory configurations) stay
        faithful failures rather than cached successes.
        """
        value = self._data.get(key, _MISSING)
        if value is not _MISSING:
            self.stats.hits += 1
            return value
        self.stats.misses += 1
        value = compute()
        self.put(key, value)
        return value

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator[Tuple[str, Any]]:
        return iter(self._data.items())

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        self._data.clear()
        self.stats = CacheStats()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        s = self.stats
        return (
            f"<EvalCache entries={len(self._data)} "
            f"hits={s.hits} misses={s.misses}>"
        )
