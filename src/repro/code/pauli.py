"""Pauli-string algebra with exact phase tracking.

A :class:`PauliString` is a tensor product of single-qubit Paulis over an
arbitrary set of hashable qubit keys (we use qsite indices), together with a
global phase ``i^k``.  Phases matter: logical Y operators are built as
``i * X_L * Z_L`` and corner movements multiply logical operators by
stabilizers, so sign bookkeeping must be exact for the §4 verification.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping

__all__ = ["PauliString"]

# Single-qubit products: (left, right) -> (i-power, result or None for identity)
_MUL: dict[tuple[str, str], tuple[int, str | None]] = {
    ("X", "X"): (0, None),
    ("Y", "Y"): (0, None),
    ("Z", "Z"): (0, None),
    ("X", "Y"): (1, "Z"),
    ("Y", "X"): (3, "Z"),
    ("Y", "Z"): (1, "X"),
    ("Z", "Y"): (3, "X"),
    ("Z", "X"): (1, "Y"),
    ("X", "Z"): (3, "Y"),
}


class PauliString:
    """Immutable Pauli string ``i^phase * prod_j P_j``.

    ``ops`` maps qubit key -> 'X' | 'Y' | 'Z' (identity factors are absent);
    ``phase`` is the exponent of ``i`` modulo 4.
    """

    __slots__ = ("_ops", "_phase")

    def __init__(self, ops: Mapping[Hashable, str] | None = None, phase: int = 0):
        clean: dict[Hashable, str] = {}
        for key, p in (ops or {}).items():
            if p == "I":
                continue
            if p not in ("X", "Y", "Z"):
                raise ValueError(f"invalid Pauli letter {p!r} on qubit {key!r}")
            clean[key] = p
        self._ops = clean
        self._phase = phase % 4

    # ---------------------------------------------------------- constructors
    @classmethod
    def identity(cls) -> "PauliString":
        return cls({}, 0)

    @classmethod
    def single(cls, key: Hashable, p: str, phase: int = 0) -> "PauliString":
        return cls({key: p}, phase)

    @classmethod
    def from_label(cls, label: str, keys: Iterable[Hashable], phase: int = 0) -> "PauliString":
        keys = list(keys)
        if len(label) != len(keys):
            raise ValueError("label length must match number of keys")
        return cls({k: p for k, p in zip(keys, label) if p != "I"}, phase)

    # -------------------------------------------------------------- queries
    @property
    def ops(self) -> dict[Hashable, str]:
        return dict(self._ops)

    @property
    def phase(self) -> int:
        return self._phase

    @property
    def sign(self) -> complex:
        return (1, 1j, -1, -1j)[self._phase]

    @property
    def support(self) -> frozenset:
        return frozenset(self._ops)

    @property
    def weight(self) -> int:
        return len(self._ops)

    @property
    def is_identity(self) -> bool:
        return not self._ops

    @property
    def is_hermitian(self) -> bool:
        return self._phase % 2 == 0

    def get(self, key: Hashable) -> str:
        return self._ops.get(key, "I")

    def __getitem__(self, key: Hashable) -> str:
        return self.get(key)

    # -------------------------------------------------------------- algebra
    def __mul__(self, other: "PauliString") -> "PauliString":
        """Operator product ``self @ other`` (self applied on the left)."""
        if not isinstance(other, PauliString):
            return NotImplemented
        ops = dict(self._ops)
        phase = self._phase + other._phase
        for key, p in other._ops.items():
            cur = ops.pop(key, None)
            if cur is None:
                ops[key] = p
            else:
                extra, res = _MUL[(cur, p)]
                phase += extra
                if res is not None:
                    ops[key] = res
        return PauliString(ops, phase)

    def __neg__(self) -> "PauliString":
        return PauliString(self._ops, self._phase + 2)

    def times_i(self) -> "PauliString":
        return PauliString(self._ops, self._phase + 1)

    def commutes_with(self, other: "PauliString") -> bool:
        anti = 0
        small, big = (
            (self._ops, other._ops)
            if len(self._ops) <= len(other._ops)
            else (other._ops, self._ops)
        )
        for key, p in small.items():
            q = big.get(key)
            if q is not None and q != p:
                anti ^= 1
        return anti == 0

    def restricted(self, keys: Iterable[Hashable]) -> "PauliString":
        keyset = set(keys)
        return PauliString({k: p for k, p in self._ops.items() if k in keyset}, self._phase)

    def without(self, keys: Iterable[Hashable]) -> "PauliString":
        keyset = set(keys)
        return PauliString({k: p for k, p in self._ops.items() if k not in keyset}, self._phase)

    def relabel(self, mapping: Mapping[Hashable, Hashable]) -> "PauliString":
        """Rename qubit keys; keys absent from ``mapping`` are kept."""
        return PauliString({mapping.get(k, k): p for k, p in self._ops.items()}, self._phase)

    # ------------------------------------------------------------- plumbing
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PauliString):
            return NotImplemented
        return self._ops == other._ops and self._phase == other._phase

    def equals_up_to_sign(self, other: "PauliString") -> bool:
        return self._ops == other._ops

    def __hash__(self) -> int:
        return hash((frozenset(self._ops.items()), self._phase))

    def __repr__(self) -> str:
        pre = {0: "+", 1: "+i", 2: "-", 3: "-i"}[self._phase]
        if not self._ops:
            return f"{pre}I"
        body = " ".join(
            f"{p}[{k}]" for k, p in sorted(self._ops.items(), key=lambda kv: repr(kv[0]))
        )
        return f"{pre}{body}"
