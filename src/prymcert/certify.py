"""Pipeline orchestration and the serializable certificate.

run_pipeline executes every check of the model in a fixed order, then
searches seeded random coefficient triples for a witness where the
determinant is nonzero, the relation-matrix kernel is 1-dimensional and
the diagonal intersection is certified empty.  The result is a
Certificate whose JSON form is byte-identical across runs with the same
seed.  FIELDS is the format: the Certificate attributes, the JSON keys
and their order, and how each value is written and read all come from
it.  verify_certificate recomputes a certificate and raises CheckFailed
at the first failure.

The sampler is SplitMix64 (public-domain mixing constants), mapped onto
the integer range [-10, 10] by rejection, so the triple sequence for a
given seed is identical on every platform and Python version.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Iterator

from . import CheckFailed, __version__
from .exactnum import rational_from_text
from .weil_model import (
    CERTIFIED_EMPTY,
    CoefficientTriple,
    check_identities,
    cross_check_determinant,
    determinant_at,
    eigen_decomposition,
    elimination_determinant,
    fixed_point_free_check,
    genus_check,
    quadric_relation_kernel_dim,
    verify_diagonal,
)

_MASK64 = (1 << 64) - 1
_SPAN = 21  # |[-10, 10]|
_REJECT_LIMIT = (2 ** 64 // _SPAN) * _SPAN


class SeededSampler:
    """Deterministic SplitMix64 stream of coefficient triples."""

    __slots__ = ("seed", "_state")

    def __init__(self, seed: int):
        self.seed = seed
        self._state = seed & _MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_int(self) -> int:
        """Uniform integer in [-10, 10] (rejection sampling, no modulo bias)."""
        while True:
            z = self.next_uint64()
            if z < _REJECT_LIMIT:
                return z % _SPAN - 10

    def next_triple(self) -> CoefficientTriple:
        return CoefficientTriple.from_rationals([self.next_int() for _ in range(9)])


FIELDS = (
    ("tool_version", str),
    ("seed", int),
    ("identity_verdicts", dict),
    ("eigenspace_dims", (int, 4)),
    ("diagonal_factors", (Fraction, None)),
    ("chow_coefficient", int),
    ("genus", int),
    ("det_m_at_origin", Fraction),
    ("det_m_term_count", int),
    ("det_m_nonzero", bool),
    ("witness_triple", CoefficientTriple),
    ("witness_det_m", Fraction),
    ("witness_quadric_kernel_dim", int),
    ("fixed_point_free", str),
    ("overall", str),
)
"""The certificate format: each field in JSON key order with its kind.

A kind is str, int, bool or dict, as in JSON; Fraction, a rational as
"p" or "p/q" text; (kind, n), a list of n values of that kind (any
number when n is None); or CoefficientTriple, a list of 9 rationals.
"""

_WITNESS_FIELDS = ("witness_triple", "witness_det_m", "witness_quadric_kernel_dim",
                   "fixed_point_free")


class Certificate:
    """Machine-checkable record of every verdict for one pipeline run, built
    from one keyword argument per field; overall is "Pass" iff a witness was found."""

    __slots__ = tuple(name for name, _ in FIELDS)

    def __init__(self, **fields: object):
        missing = [name for name in self.__slots__ if name not in fields]
        unknown = [name for name in fields if name not in self.__slots__]
        if missing or unknown:
            raise TypeError(f"Certificate fields missing {missing}, unknown {unknown}")
        for name in self.__slots__:
            setattr(self, name, fields[name])

    def to_json_dict(self) -> "dict[str, object]":
        """The fields in key order; the witness fields only when there is a witness."""
        witness = self.witness_triple is not None
        return {name: _dump(getattr(self, name), kind) for name, kind in FIELDS
                if witness or name not in _WITNESS_FIELDS}

    def to_json(self) -> str:
        """Stable serialization: fixed key order, two-space indent, newline."""
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Certificate":
        """Parse a certificate, checking the kind of every field.

        ValueError names the first missing or malformed field.  Values are
        not judged here; verify_certificate compares them with a recomputation.
        """
        try:
            doc = json.loads(text)
        except RecursionError:
            raise ValueError("certificate JSON is nested too deeply") from None
        if not isinstance(doc, dict):
            raise ValueError(f"certificate must be a JSON object, not {type(doc).__name__}")
        witness = any(name in doc for name in _WITNESS_FIELDS)  # then all four are required
        fields = {}
        for name, kind in FIELDS:
            if name not in doc and (witness or name not in _WITNESS_FIELDS):
                raise ValueError(f"certificate field {name!r} is missing")
            fields[name] = _load(name, doc[name], kind) if name in doc else None
        if fields["seed"] < 0:
            raise ValueError(f"certificate field 'seed' must be non-negative, got {fields['seed']}")
        if not all(isinstance(v, str) for v in fields["identity_verdicts"].values()):
            raise ValueError("certificate field 'identity_verdicts' must map names to strings")
        return cls(**fields)


def _json_kind(kind) -> type:
    """The JSON type that holds a value of the kind, other than CoefficientTriple."""
    return list if isinstance(kind, tuple) else str if kind is Fraction else kind


def _is(value: object, kind: type) -> bool:
    """isinstance, except that a JSON true/false is not an int."""
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


def _load(name: str, value: object, kind):
    """A JSON value of field name read as the kind; ValueError when it has another shape."""
    if kind is CoefficientTriple:
        return CoefficientTriple.from_rationals(_load(name, value, (Fraction, 9)))
    if not _is(value, _json_kind(kind)):
        raise ValueError(f"certificate field {name!r} must be {_json_kind(kind).__name__}, "
                         f"got {type(value).__name__}")
    if kind is Fraction:
        return rational_from_text(value)
    if not isinstance(kind, tuple):
        return value
    item, length = kind
    if not all(_is(v, _json_kind(item)) for v in value):
        raise ValueError(f"certificate field {name!r} must hold only "
                         f"{_json_kind(item).__name__} values")
    if length is not None and len(value) != length:
        raise ValueError(f"certificate field {name!r} must have {length} entries, got {len(value)}")
    return tuple(_load(name, v, item) for v in value)


def _dump(value: object, kind) -> object:
    """A field value of the kind as JSON: rationals as text, sequences as lists."""
    if kind is CoefficientTriple:
        return _dump(value.values(), (Fraction, 9))
    if isinstance(kind, tuple):
        return [_dump(v, kind[0]) for v in value]
    if kind is Fraction:
        return str(value)
    return dict(value) if kind is dict else value


def _witness_conditions(triple: CoefficientTriple) -> "Iterator[tuple[str, object, bool, str]]":
    """Yield (field, value, condition holds, condition) for the three witness fields.

    In certificate field order, each value computed only when asked for,
    so a caller that stops at the first failed condition skips the rest.
    """
    value = determinant_at(triple)
    yield "witness_det_m", value, value != 0, "det M != 0"
    kernel_dim = quadric_relation_kernel_dim(triple)
    yield "witness_quadric_kernel_dim", kernel_dim, kernel_dim == 1, "kernel dimension 1"
    verdict = fixed_point_free_check(triple)
    yield "fixed_point_free", verdict, verdict == CERTIFIED_EMPTY, CERTIFIED_EMPTY


def _witness_values(triple: CoefficientTriple) -> "tuple[Fraction, int, str] | None":
    """The three witness-local values, or None when any condition fails."""
    values = []
    for _, value, holds, _ in _witness_conditions(triple):
        if not holds:
            return None
        values.append(value)
    return tuple(values)


def universal_fields() -> "dict[str, object]":
    """The certificate fields that do not depend on the seed, freshly computed.

    Keys are Certificate field names.  A check whose claim fails raises
    CheckFailed.  det M at the origin, by elimination over Q, must equal
    the symbolic det M there and be 1, hence nonzero.
    """
    identities = check_identities()
    dims = eigen_decomposition()
    factors = verify_diagonal()  # includes the base-point-free certificate
    top, genus = genus_check()
    det = elimination_determinant()
    origin = CoefficientTriple.origin()
    det_at_origin = determinant_at(origin)
    cross_check_determinant(origin, det_at_origin)
    if det_at_origin != 1:
        raise CheckFailed(f"det M at the origin is {det_at_origin}, expected 1")
    return {
        "tool_version": __version__,
        "identity_verdicts": dict.fromkeys(identities, "Pass"),
        "eigenspace_dims": dims,
        "diagonal_factors": factors,
        "chow_coefficient": top,
        "genus": genus,
        "det_m_at_origin": det_at_origin,
        "det_m_term_count": det.term_count(),
        "det_m_nonzero": bool(det),
    }


def run_pipeline(seed: int, max_attempts: int = 100) -> Certificate:
    """Run every check and search for a witness; deterministic in (seed, max_attempts).

    A universal check that fails raises CheckFailed, and no certificate
    is made.  When no sampled triple passes all three witness conditions
    within max_attempts, the witness fields stay absent and the overall
    verdict is "Fail".  The det M values at the origin and at the witness,
    by elimination over Q, are checked against the symbolic det M
    (CheckFailed on a mismatch).
    """
    fields = universal_fields()
    sampler = SeededSampler(seed)
    witness = dict.fromkeys(_WITNESS_FIELDS)
    for _ in range(max_attempts):
        candidate = sampler.next_triple()
        values = _witness_values(candidate)
        if values is not None:
            cross_check_determinant(candidate, values[0])
            witness = dict(zip(_WITNESS_FIELDS, (candidate, *values)))
            break
    return Certificate(seed=seed, **fields, **witness,
                       overall="Fail" if witness["witness_triple"] is None else "Pass")


def verify_certificate(cert: Certificate) -> None:
    """Recompute every field, compare it with the recorded value, and
    require the witness conditions.

    Every failure raises CheckFailed: a certificate without a witness, a
    universal check whose claim fails, and then, in certificate field
    order, the first field whose recorded value differs from the
    recomputed one (overall must read "Pass") or the first witness field
    whose correctly recorded value fails its condition: det M nonzero,
    kernel dimension 1, CertifiedEmpty.  The seed is not re-sampled: any
    witness that passes the checks is as good as the sampled one.  Each
    det M value, by elimination over Q, is checked against the symbolic one.
    """
    if cert.witness_triple is None:
        raise CheckFailed("certificate has no witness to re-check")
    for name, recomputed in universal_fields().items():
        _compare(cert, name, recomputed)
    for name, recomputed, holds, condition in _witness_conditions(cert.witness_triple):
        if name == "witness_det_m":
            cross_check_determinant(cert.witness_triple, recomputed)
        _compare(cert, name, recomputed)
        if not holds:
            raise CheckFailed(f"certificate field {name!r}: {recomputed} fails the witness "
                              f"condition ({condition})")
    _compare(cert, "overall", "Pass")


def _compare(cert: Certificate, name: str, recomputed: object) -> None:
    """CheckFailed unless the certificate records the recomputed value of the field."""
    recorded = getattr(cert, name)
    if recorded != recomputed:
        raise CheckFailed(
            f"certificate field {name!r}: recorded {recorded}, recomputed {recomputed}")
