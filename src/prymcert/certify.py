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
from dataclasses import dataclass
from fractions import Fraction

from . import __version__
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


class CertificateMismatch(AssertionError):
    """Recomputation diverged from a recorded certificate field."""

    def __init__(self, field: str, recorded: object, recomputed: object):
        super().__init__(
            f"certificate field {field!r}: recorded {recorded}, recomputed {recomputed}")
        self.field = field
        self.recorded = recorded
        self.recomputed = recomputed


@dataclass
class SeededSampler:
    """Deterministic SplitMix64 stream of coefficient triples."""

    seed: int

    def __post_init__(self) -> None:
        self._state = self.seed & _MASK64

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


@dataclass
class Certificate:
    """Machine-checkable record of every verdict for one pipeline run."""

    tool_version: str
    seed: int
    identity_verdicts: "dict[str, str]"          # name -> "Pass" | "Fail"
    eigenspace_dims: "tuple[int, int, int, int]"
    diagonal_factors: "tuple[int | Fraction, ...]"
    chow_coefficient: int
    genus: int
    det_m_at_origin: Fraction
    det_m_term_count: int
    det_m_nonzero: bool
    witness_triple: "CoefficientTriple | None"
    witness_det_m: "Fraction | None"
    witness_quadric_kernel_dim: "int | None"
    fixed_point_free: "str | None"               # CertifiedEmpty | Inconclusive
    overall: str                                 # "Pass" | "Fail"

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


def _witness_conditions(triple: CoefficientTriple) -> "tuple[Fraction, int, str] | None":
    """The three witness-local values, or None when any condition fails."""
    value = determinant_at(triple)
    if value == 0:
        return None
    kernel_dim = quadric_relation_kernel_dim(triple)
    if kernel_dim != 1:
        return None
    verdict = fixed_point_free_check(triple)
    if verdict != CERTIFIED_EMPTY:
        return None
    return value, kernel_dim, verdict


def universal_fields() -> "dict[str, object]":
    """The certificate fields that do not depend on the seed, freshly computed.

    Keys are Certificate field names.  det M is cross-checked at the
    origin by elimination of the evaluated 6x6 over Q (AssertionError on
    a mismatch).
    """
    identity_verdicts = {name: "Pass" if ok else "Fail"
                         for name, ok in check_identities().items()}
    dims = eigen_decomposition().dims
    factors = verify_diagonal().factors  # includes the base-point-free certificate
    genus_report = genus_check()
    det = elimination_determinant()
    origin = CoefficientTriple.origin()
    det_at_origin = determinant_at(origin)
    cross_check_determinant(origin, det_at_origin)
    return {
        "tool_version": __version__,
        "identity_verdicts": identity_verdicts,
        "eigenspace_dims": dims,
        "diagonal_factors": factors,
        "chow_coefficient": genus_report.chow_coefficient,
        "genus": genus_report.genus,
        "det_m_at_origin": det_at_origin,
        "det_m_term_count": det.term_count(),
        "det_m_nonzero": bool(det),
    }


def _overall(fields: "dict[str, object]", has_witness: bool) -> str:
    universal_pass = (
        all(v == "Pass" for v in fields["identity_verdicts"].values())
        and fields["eigenspace_dims"] == (6, 4, 3, 3)
        and fields["chow_coefficient"] == 24
        and fields["genus"] == 13
        and fields["det_m_at_origin"] == 1
        and fields["det_m_term_count"] > 0
    )
    return "Pass" if universal_pass and has_witness else "Fail"


def run_pipeline(seed: int, max_attempts: int = 100) -> Certificate:
    """Run every check and search for a witness; deterministic in (seed, max_attempts).

    All universal checks always run and are recorded.  When no sampled
    triple passes all three witness conditions within max_attempts, the
    witness fields stay absent and the overall verdict is "Fail".  The
    det M values at the origin and at the witness are cross-checked by
    elimination of the evaluated 6x6 over Q (AssertionError on a mismatch).
    """
    fields = universal_fields()
    sampler = SeededSampler(seed)
    witness = None
    witness_values: "tuple[Fraction, int, str] | None" = None
    for _ in range(max_attempts):
        candidate = sampler.next_triple()
        values = _witness_conditions(candidate)
        if values is not None:
            cross_check_determinant(candidate, values[0])
            witness = candidate
            witness_values = values
            break

    return Certificate(
        seed=seed,
        **fields,
        witness_triple=witness,
        witness_det_m=witness_values[0] if witness_values else None,
        witness_quadric_kernel_dim=witness_values[1] if witness_values else None,
        fixed_point_free=witness_values[2] if witness_values else None,
        overall=_overall(fields, witness is not None),
    )


def verify_certificate(cert: Certificate) -> None:
    """Recompute every field and compare it with the recorded value.

    Raises MissingWitness when the certificate has no witness, and
    CertificateMismatch naming the first divergent field otherwise, in
    certificate field order.  The seed is not re-sampled: any witness
    that passes the checks is as good as the sampled one.  The
    recomputed det M values are cross-checked as in run_pipeline.
    """
    if cert.witness_triple is None:
        raise MissingWitness("certificate has no witness to re-check")
    fields = universal_fields()
    for name, recomputed in fields.items():
        recorded = getattr(cert, name)
        if recorded != recomputed:
            raise CertificateMismatch(name, recorded, recomputed)
    value = determinant_at(cert.witness_triple)
    cross_check_determinant(cert.witness_triple, value)
    if value != cert.witness_det_m:
        raise CertificateMismatch("witness_det_m", cert.witness_det_m, value)
    kernel_dim = quadric_relation_kernel_dim(cert.witness_triple)
    if kernel_dim != cert.witness_quadric_kernel_dim:
        raise CertificateMismatch(
            "witness_quadric_kernel_dim", cert.witness_quadric_kernel_dim, kernel_dim)
    verdict = fixed_point_free_check(cert.witness_triple)
    if verdict != cert.fixed_point_free:
        raise CertificateMismatch("fixed_point_free", cert.fixed_point_free, verdict)
    overall = _overall(fields, has_witness=True)
    if cert.overall != overall:
        raise CertificateMismatch("overall", cert.overall, overall)
