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
    diagonal_factors: "tuple[Fraction, ...]"
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
        doc = json.loads(text)
        witness = None
        witness_det = None
        kernel_dim = None
        fpf = None
        if "witness_triple" in doc:
            witness = CoefficientTriple.from_rationals(
                [rational_from_text(v) for v in doc["witness_triple"]])
            witness_det = rational_from_text(doc["witness_det_m"])
            kernel_dim = int(doc["witness_quadric_kernel_dim"])
            fpf = doc["fixed_point_free"]
        return cls(
            tool_version=doc["tool_version"],
            seed=int(doc["seed"]),
            identity_verdicts=dict(doc["identity_verdicts"]),
            eigenspace_dims=tuple(doc["eigenspace_dims"]),
            diagonal_factors=tuple(rational_from_text(v)
                                   for v in doc["diagonal_factors"]),
            chow_coefficient=int(doc["chow_coefficient"]),
            genus=int(doc["genus"]),
            det_m_at_origin=rational_from_text(doc["det_m_at_origin"]),
            det_m_term_count=int(doc["det_m_term_count"]),
            det_m_nonzero=bool(doc["det_m_nonzero"]),
            witness_triple=witness,
            witness_det_m=witness_det,
            witness_quadric_kernel_dim=kernel_dim,
            fixed_point_free=fpf,
            overall=doc["overall"],
        )


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


def run_pipeline(seed: int, max_attempts: int = 100) -> Certificate:
    """Run every check and search for a witness; deterministic in (seed, max_attempts).

    All universal checks always run and are recorded.  When no sampled
    triple passes all three witness conditions within max_attempts, the
    witness fields stay absent and the overall verdict is "Fail".  The
    det M values at the origin and at the witness are cross-checked by
    elimination of the evaluated 6x6 over Q (AssertionError on a mismatch).
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
    term_count = det.term_count()

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

    universal_pass = (
        all(v == "Pass" for v in identity_verdicts.values())
        and dims == (6, 4, 3, 3)
        and genus_report.chow_coefficient == 24
        and genus_report.genus == 13
        and det_at_origin == 1
        and term_count > 0
    )
    overall = "Pass" if universal_pass and witness is not None else "Fail"

    return Certificate(
        tool_version=__version__,
        seed=seed,
        identity_verdicts=identity_verdicts,
        eigenspace_dims=dims,
        diagonal_factors=factors,
        chow_coefficient=genus_report.chow_coefficient,
        genus=genus_report.genus,
        det_m_at_origin=det_at_origin,
        det_m_term_count=term_count,
        det_m_nonzero=bool(det),
        witness_triple=witness,
        witness_det_m=witness_values[0] if witness_values else None,
        witness_quadric_kernel_dim=witness_values[1] if witness_values else None,
        fixed_point_free=witness_values[2] if witness_values else None,
        overall=overall,
    )


def verify_certificate(cert: Certificate) -> None:
    """Recompute the witness-local checks and compare with the recorded values.

    Raises MissingWitness when the certificate has no witness, and
    CertificateMismatch naming the first divergent field otherwise.  The
    recomputed det M value is cross-checked as in run_pipeline.
    """
    if cert.witness_triple is None:
        raise MissingWitness("certificate has no witness to re-check")
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
