"""Pipeline orchestration and the serializable certificate.

run_pipeline executes every check of the model in a fixed order, then
searches seeded random coefficient triples for a witness where the
determinant is nonzero, the relation-matrix kernel is 1-dimensional and
the diagonal intersection is certified empty.  The result is a
Certificate whose JSON form is byte-identical across runs with the same
seed.

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


class MissingWitness(ValueError):
    """The certificate carries no witness triple."""


class WitnessRejected(AssertionError):
    """A recorded witness value, recomputed correctly, fails its witness condition."""

    def __init__(self, field: str, value: object):
        super().__init__(
            f"certificate field {field!r}: {value} fails the witness condition "
            f"({_WITNESS_REQUIREMENTS[field]})")
        self.field = field
        self.value = value


class CertificateMismatch(AssertionError):
    """Recomputation diverged from a recorded certificate field."""

    def __init__(self, field: str, recorded: object, recomputed: object):
        super().__init__(
            f"certificate field {field!r}: recorded {recorded}, recomputed {recomputed}")
        self.field = field
        self.recorded = recorded
        self.recomputed = recomputed


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


class Certificate:
    """Machine-checkable record of every verdict for one pipeline run, built
    from one keyword argument per field; overall is "Pass" iff a witness was found."""

    __slots__ = ("tool_version", "seed", "identity_verdicts", "eigenspace_dims",
                 "diagonal_factors", "chow_coefficient", "genus", "det_m_at_origin",
                 "det_m_term_count", "det_m_nonzero", "witness_triple", "witness_det_m",
                 "witness_quadric_kernel_dim", "fixed_point_free", "overall")

    def __init__(self, **fields: object):
        missing = [name for name in self.__slots__ if name not in fields]
        unknown = [name for name in fields if name not in self.__slots__]
        if missing or unknown:
            raise TypeError(f"Certificate fields missing {missing}, unknown {unknown}")
        for name in self.__slots__:
            setattr(self, name, fields[name])

    def to_json_dict(self) -> "dict[str, object]":
        doc: dict[str, object] = {
            "tool_version": self.tool_version,
            "seed": self.seed,
            "identity_verdicts": dict(self.identity_verdicts),
            "eigenspace_dims": list(self.eigenspace_dims),
            "diagonal_factors": [str(f) for f in self.diagonal_factors],
            "chow_coefficient": self.chow_coefficient,
            "genus": self.genus,
            "det_m_at_origin": str(self.det_m_at_origin),
            "det_m_term_count": self.det_m_term_count,
            "det_m_nonzero": self.det_m_nonzero,
        }
        if self.witness_triple is not None:
            doc["witness_triple"] = [str(v) for v in self.witness_triple.values()]
            doc["witness_det_m"] = str(self.witness_det_m)
            doc["witness_quadric_kernel_dim"] = self.witness_quadric_kernel_dim
            doc["fixed_point_free"] = self.fixed_point_free
        doc["overall"] = self.overall
        return doc

    def to_json(self) -> str:
        """Stable serialization: fixed key order, two-space indent, newline."""
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Certificate":
        """Parse a certificate, checking the shape of every field.

        ValueError names the first missing or malformed field.  Values are
        not judged here; verify_certificate compares them with a recomputation.
        """
        try:
            doc = json.loads(text)
        except RecursionError:
            raise ValueError("certificate JSON is nested too deeply") from None
        if not isinstance(doc, dict):
            raise ValueError(f"certificate must be a JSON object, not {type(doc).__name__}")
        seed = _field(doc, "seed", int)
        if seed < 0:
            raise ValueError(f"certificate field 'seed' must be non-negative, got {seed}")
        verdicts = _field(doc, "identity_verdicts", dict)
        if not all(isinstance(v, str) for v in verdicts.values()):  # JSON keys are strings
            raise ValueError("certificate field 'identity_verdicts' must map names to strings")
        witness = witness_det = kernel_dim = fpf = None
        if any(name in doc for name in _WITNESS_FIELDS):  # then all four are required
            witness = CoefficientTriple.from_rationals(_rationals(doc, "witness_triple", 9))
            witness_det = _rational(doc, "witness_det_m")
            kernel_dim = _field(doc, "witness_quadric_kernel_dim", int)
            fpf = _field(doc, "fixed_point_free", str)
        return cls(
            tool_version=_field(doc, "tool_version", str),
            seed=seed,
            identity_verdicts=dict(verdicts),
            eigenspace_dims=tuple(_field(doc, "eigenspace_dims", list, int, 4)),
            diagonal_factors=tuple(_rationals(doc, "diagonal_factors")),
            chow_coefficient=_field(doc, "chow_coefficient", int),
            genus=_field(doc, "genus", int),
            det_m_at_origin=_rational(doc, "det_m_at_origin"),
            det_m_term_count=_field(doc, "det_m_term_count", int),
            det_m_nonzero=_field(doc, "det_m_nonzero", bool),
            witness_triple=witness,
            witness_det_m=witness_det,
            witness_quadric_kernel_dim=kernel_dim,
            fixed_point_free=fpf,
            overall=_field(doc, "overall", str),
        )


_WITNESS_FIELDS = ("witness_triple", "witness_det_m", "witness_quadric_kernel_dim",
                   "fixed_point_free")


def _is(value: object, kind: type) -> bool:
    """isinstance, except that a JSON true/false is not an int."""
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


def _field(doc: dict, name: str, kind: type, item: "type | None" = None,
           length: "int | None" = None):
    """doc[name], required to be of JSON type kind (a list of item, of a given length)."""
    if name not in doc:
        raise ValueError(f"certificate field {name!r} is missing")
    value = doc[name]
    if not _is(value, kind):
        raise ValueError(f"certificate field {name!r} must be {kind.__name__}, "
                         f"got {type(value).__name__}")
    if item is not None and not all(_is(v, item) for v in value):
        raise ValueError(f"certificate field {name!r} must hold only {item.__name__} values")
    if length is not None and len(value) != length:
        raise ValueError(f"certificate field {name!r} must have {length} entries, got {len(value)}")
    return value


def _rational(doc: dict, name: str) -> Fraction:
    return rational_from_text(_field(doc, name, str))


def _rationals(doc: dict, name: str, length: "int | None" = None) -> "list[Fraction]":
    return [rational_from_text(v) for v in _field(doc, name, list, str, length)]


_WITNESS_REQUIREMENTS = {
    "witness_det_m": "det M != 0",
    "witness_quadric_kernel_dim": "kernel dimension 1",
    "fixed_point_free": CERTIFIED_EMPTY,
}


def _witness_conditions(triple: CoefficientTriple) -> "Iterator[tuple[str, object, bool]]":
    """Yield (field, value, condition holds) for the three witness fields.

    In certificate field order, each value computed only when asked for,
    so a caller that stops at the first failed condition skips the rest.
    """
    value = determinant_at(triple)
    yield "witness_det_m", value, value != 0
    kernel_dim = quadric_relation_kernel_dim(triple)
    yield "witness_quadric_kernel_dim", kernel_dim, kernel_dim == 1
    verdict = fixed_point_free_check(triple)
    yield "fixed_point_free", verdict, verdict == CERTIFIED_EMPTY


def _witness_values(triple: CoefficientTriple) -> "tuple[Fraction, int, str] | None":
    """The three witness-local values, or None when any condition fails."""
    values = []
    for _, value, holds in _witness_conditions(triple):
        if not holds:
            return None
        values.append(value)
    return tuple(values)


def universal_fields() -> "dict[str, object]":
    """The certificate fields that do not depend on the seed, freshly computed.

    Keys are Certificate field names.  A check whose claim fails raises
    CheckFailed.  det M is cross-checked at the origin by elimination of
    the evaluated 6x6 over Q, and must be 1 there, hence nonzero.
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
    verdict is "Fail".  The det M values at the origin and at the witness
    are cross-checked by elimination of the evaluated 6x6 over Q
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

    Raises MissingWitness when the certificate has no witness, and
    CheckFailed when a universal check fails; otherwise, in certificate
    field order, CertificateMismatch names the first divergent field
    (overall must read "Pass") and WitnessRejected the first witness
    field whose (correctly recorded) value fails its condition: det M
    nonzero, kernel dimension 1, CertifiedEmpty.  The seed is not
    re-sampled: any witness that passes the checks is as good as the
    sampled one.  The recomputed det M values are cross-checked as in
    run_pipeline.
    """
    if cert.witness_triple is None:
        raise MissingWitness("certificate has no witness to re-check")
    fields = universal_fields()
    for name, recomputed in fields.items():
        recorded = getattr(cert, name)
        if recorded != recomputed:
            raise CertificateMismatch(name, recorded, recomputed)
    for name, recomputed, holds in _witness_conditions(cert.witness_triple):
        if name == "witness_det_m":
            cross_check_determinant(cert.witness_triple, recomputed)
        recorded = getattr(cert, name)
        if recorded != recomputed:
            raise CertificateMismatch(name, recorded, recomputed)
        if not holds:
            raise WitnessRejected(name, recomputed)
    if cert.overall != "Pass":
        raise CertificateMismatch("overall", cert.overall, "Pass")
