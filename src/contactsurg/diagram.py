"""Data model for contact (+1/-1)-surgery diagrams on the three-sphere.

A diagram is an ordered list of Legendrian link components, each with its
Thurston-Bennequin invariant ``tb``, rotation number ``rot`` and contact
surgery coefficient ``coeff`` (+1 or -1), together with the pairwise
linking numbers and an optional distinguished knot that is *not* surgered.
The topological surgery framing of a component is ``tb + coeff``; these
framings sit on the diagonal of the linking matrix, whose off-diagonal
entries are the linking numbers. Component order is file order and fixes
the order of every reported vector.

Geometry (front projections, crossings, Kirby moves) is out of scope:
components are abstract (tb, rot, coeff) triples, and linking data is
given, not computed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .exactla import IntMatrix

__all__ = [
    "DiagramError",
    "DiagramFormatError",
    "DiagramValidationError",
    "MissingKnotError",
    "LegendrianComponent",
    "DistinguishedKnot",
    "SurgeryDiagram",
    "Violation",
    "linking_matrix",
    "extended_matrix",
    "validate",
    "promote_knot",
    "diagram_to_json",
    "diagram_from_json",
    "load_diagram",
    "save_diagram",
]


class DiagramError(Exception):
    """Base class for diagram-level errors."""


class DiagramFormatError(DiagramError):
    """The diagram file does not match the expected JSON schema."""


class DiagramValidationError(DiagramError):
    """The diagram violates a structural invariant (bad linking data...)."""


class MissingKnotError(DiagramError):
    """An operation needed the distinguished knot, but none is present."""


@dataclass(frozen=True)
class LegendrianComponent:
    """One surgered link component: (tb, rot) plus the contact coefficient."""

    id: str
    tb: int
    rot: int
    coeff: int  # contact surgery coefficient, +1 or -1

    @property
    def framing(self) -> int:
        """Topological surgery framing tb + coeff."""
        return self.tb + self.coeff

    @property
    def blocks_d3(self) -> bool:
        """A (+1)-component with tb = 0, outside the d3 formula's hypotheses."""
        return self.coeff == 1 and self.tb == 0


@dataclass(frozen=True)
class DistinguishedKnot:
    """A non-surgered Legendrian knot riding along the diagram.

    ``tb0`` and ``rot0`` are its classical invariants in the unsurgered
    three-sphere; ``lk`` maps each component id to the linking number
    with that component.
    """

    id: str
    tb0: int
    rot0: int
    lk: Mapping[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class SurgeryDiagram:
    """Ordered components, symmetric linking data, optional knot.

    ``linking`` is keyed by ordered id pairs as supplied by the caller;
    lookups accept either order and complain when the two orders carry
    contradictory values. Instances are immutable value objects.
    """

    components: tuple[LegendrianComponent, ...]
    linking: Mapping[tuple[str, str], int] = field(default_factory=dict)
    knot: DistinguishedKnot | None = None

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        object.__setattr__(self, "linking", dict(self.linking))

    def component_ids(self) -> tuple[str, ...]:
        return tuple(c.id for c in self.components)

    def linking_number(self, a: str, b: str) -> int:
        if a == b:
            raise DiagramValidationError(f"self-linking of {a!r} is the framing, not a pair")
        forward = self.linking.get((a, b))
        backward = self.linking.get((b, a))
        if forward is not None and backward is not None and forward != backward:
            raise DiagramValidationError(
                f"asymmetric linking data for ({a!r}, {b!r}): {forward} vs {backward}")
        if forward is None and backward is None:
            raise DiagramValidationError(f"missing linking number for ({a!r}, {b!r})")
        return forward if forward is not None else backward

    def rot_vector(self) -> tuple[int, ...]:
        return tuple(c.rot for c in self.components)

    def lk_vector(self) -> tuple[int, ...]:
        """Linking numbers of the distinguished knot, in component order."""
        if self.knot is None:
            raise MissingKnotError("diagram has no distinguished knot")
        try:
            return tuple(self.knot.lk[c.id] for c in self.components)
        except KeyError as exc:
            raise DiagramValidationError(
                f"knot linking vector misses component {exc.args[0]!r}") from None


@dataclass(frozen=True)
class Violation:
    """One finding from validate(); ``fatal=False`` entries are warnings."""

    code: str
    message: str
    fatal: bool = True

    def __str__(self) -> str:
        tag = "error" if self.fatal else "warning"
        return f"[{tag}] {self.code}: {self.message}"


def linking_matrix(d: SurgeryDiagram) -> IntMatrix:
    """Linking matrix M: framings on the diagonal, linking numbers off it."""
    ids = d.component_ids()
    n = len(ids)
    rows = []
    for i, ci in enumerate(d.components):
        row = []
        for j in range(n):
            row.append(ci.framing if i == j else d.linking_number(ids[i], ids[j]))
        rows.append(row)
    return IntMatrix(rows)


def extended_matrix(d: SurgeryDiagram) -> IntMatrix:
    """M bordered by the knot's linking vector, with corner entry 0.

    The distinguished knot occupies row and column 0; the remaining block
    is exactly ``linking_matrix(d)``. det(M0)/det(M) is the framing
    correction entering the post-surgery Thurston-Bennequin invariant,
    which ``invariants.tb_surgered`` reads in its Schur complement form.
    """
    lk = d.lk_vector()
    inner = linking_matrix(d)
    n = len(lk)
    rows = [[0, *lk]]
    for i in range(n):
        rows.append([lk[i], *inner.row(i)])
    return IntMatrix(rows)


def promote_knot(d: SurgeryDiagram, coeff: int = -1) -> SurgeryDiagram:
    """Turn the distinguished knot into the first surgered component.

    Used when the knot itself is surgered (for instance to present the
    result of Legendrian surgery along it): the new component keeps the
    knot's tb0/rot0 and gets contact coefficient ``coeff``, so its
    topological framing is tb0 + coeff.
    """
    if d.knot is None:
        raise MissingKnotError("cannot promote: diagram has no distinguished knot")
    k = d.knot
    new_comp = LegendrianComponent(id=k.id, tb=k.tb0, rot=k.rot0, coeff=coeff)
    linking = dict(d.linking)
    linking.update({(k.id, c.id): x for c, x in zip(d.components, d.lk_vector())})
    return SurgeryDiagram(components=(new_comp, *d.components),
                          linking=linking, knot=None)


def validate(d: SurgeryDiagram) -> list[Violation]:
    """Collect structural violations; empty list means the diagram is sound.

    Fatal findings break the type invariants (duplicate ids, asymmetric
    or missing linking data, bad coefficients). One non-fatal warning is
    flagged when a +1-component has tb = 0: the surgery presentation is
    fine, but the homotopy-invariant formula behind d3 does not apply.
    """
    out: list[Violation] = []
    ids = [c.id for c in d.components]
    seen = set()
    for cid in ids:
        if cid in seen:
            out.append(Violation("component-ids", f"duplicate component id {cid!r}"))
        seen.add(cid)
    for c in d.components:
        if c.coeff not in (1, -1):
            out.append(Violation(
                "contact-coeff", f"component {c.id!r} has coeff {c.coeff}, must be +1 or -1"))
    known = set(ids)
    for (a, b), _ in d.linking.items():
        if a == b:
            out.append(Violation("linking-ids", f"self-pair ({a!r}, {a!r}) in linking data"))
        elif a not in known or b not in known:
            out.append(Violation("linking-ids", f"unknown component in pair ({a!r}, {b!r})"))
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            forward = d.linking.get((a, b))
            backward = d.linking.get((b, a))
            if forward is None and backward is None:
                out.append(Violation("linking-missing", f"no linking number for ({a!r}, {b!r})"))
            elif forward is not None and backward is not None and forward != backward:
                out.append(Violation(
                    "linking-symmetry",
                    f"linking({a!r}, {b!r}) = {forward} but linking({b!r}, {a!r}) = {backward}"))
    if d.knot is not None:
        if d.knot.id in known:
            out.append(Violation("knot-id", f"knot id {d.knot.id!r} collides with a component"))
        for cid in ids:
            if cid not in d.knot.lk:
                out.append(Violation("knot-lk", f"knot linking vector misses {cid!r}"))
        for cid in d.knot.lk:
            if cid not in known:
                out.append(Violation("knot-lk", f"knot links unknown component {cid!r}"))
    for c in d.components:
        if c.blocks_d3:
            out.append(Violation(
                "d3-precondition",
                f"+1-component {c.id!r} has tb = 0; d3 formula not applicable",
                fatal=False))
    return out


# ---------------------------------------------------------------------------
# JSON diagram files
#
# { "components": [ { "id", "tb", "rot", "coeff" }, ... ],
#   "linking":    [ { "a", "b", "lk" }, ... ],
#   "knot":       { "id", "tb0", "rot0", "lk": { id: int } }   (optional) }
#
# Unknown fields are rejected and each unordered pair may appear at most
# once in "linking"; the structural rules (pair coverage, coefficients,
# ids) are validate()'s, checked on the built diagram.
# ---------------------------------------------------------------------------

def _expect_keys(obj: dict, required: set[str], what: str, optional: set[str] = frozenset()):
    if not isinstance(obj, dict):
        raise DiagramFormatError(f"{what} must be an object, got {type(obj).__name__}")
    keys = set(obj)
    unknown = keys - required - optional
    if unknown:
        raise DiagramFormatError(f"unknown field(s) {sorted(unknown)} in {what}")
    missing = required - keys
    if missing:
        raise DiagramFormatError(f"missing field(s) {sorted(missing)} in {what}")


def _expect_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DiagramFormatError(f"{what} must be an integer, got {value!r}")
    return value


def _expect_str(value, what: str) -> str:
    if not isinstance(value, str) or not value:
        raise DiagramFormatError(f"{what} must be a non-empty string, got {value!r}")
    return value


def diagram_from_json(obj: dict) -> SurgeryDiagram:
    """Build a diagram from its JSON object; every fatal validate() finding
    is raised as one DiagramFormatError."""
    _expect_keys(obj, {"components", "linking"}, "diagram", optional={"knot"})
    if not isinstance(obj["components"], list):
        raise DiagramFormatError('"components" must be an array')
    components = []
    for entry in obj["components"]:
        _expect_keys(entry, {"id", "tb", "rot", "coeff"}, "component")
        components.append(LegendrianComponent(
            id=_expect_str(entry["id"], "component id"),
            tb=_expect_int(entry["tb"], "tb"),
            rot=_expect_int(entry["rot"], "rot"),
            coeff=_expect_int(entry["coeff"], "coeff")))

    if not isinstance(obj["linking"], list):
        raise DiagramFormatError('"linking" must be an array')
    linking: dict[tuple[str, str], int] = {}
    seen_pairs: set[frozenset[str]] = set()
    for entry in obj["linking"]:
        _expect_keys(entry, {"a", "b", "lk"}, "linking entry")
        a = _expect_str(entry["a"], "linking id")
        b = _expect_str(entry["b"], "linking id")
        key = frozenset((a, b))
        if key in seen_pairs:
            raise DiagramFormatError(f"linking pair ({a!r}, {b!r}) appears more than once")
        seen_pairs.add(key)
        linking[(a, b)] = _expect_int(entry["lk"], "lk")

    knot = None
    if "knot" in obj:
        entry = obj["knot"]
        _expect_keys(entry, {"id", "tb0", "rot0", "lk"}, "knot")
        if not isinstance(entry["lk"], dict):
            raise DiagramFormatError('knot "lk" must be an object mapping ids to integers')
        knot = DistinguishedKnot(
            id=_expect_str(entry["id"], "knot id"),
            tb0=_expect_int(entry["tb0"], "tb0"),
            rot0=_expect_int(entry["rot0"], "rot0"),
            lk={cid: _expect_int(value, f"knot lk[{cid!r}]")
                for cid, value in entry["lk"].items()})
    d = SurgeryDiagram(components=tuple(components), linking=linking, knot=knot)
    fatal = [v for v in validate(d) if v.fatal]
    if fatal:
        raise DiagramFormatError("\n  ".join(
            [f"{len(fatal)} validation error(s)", *map(str, fatal)]))
    return d


def diagram_to_json(d: SurgeryDiagram) -> dict:
    ids = d.component_ids()
    linking = []
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            linking.append({"a": a, "b": b, "lk": d.linking_number(a, b)})
    out: dict = {
        "components": [{"id": c.id, "tb": c.tb, "rot": c.rot, "coeff": c.coeff}
                       for c in d.components],
        "linking": linking,
    }
    if d.knot is not None:
        out["knot"] = {"id": d.knot.id, "tb0": d.knot.tb0, "rot0": d.knot.rot0,
                       "lk": {cid: d.knot.lk[cid] for cid in ids}}
    return out


def load_diagram(path) -> SurgeryDiagram:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except (ValueError, RecursionError) as exc:
            # ValueError covers JSONDecodeError, UnicodeDecodeError and integer
            # literals past the digit limit; RecursionError covers deep nesting.
            raise DiagramFormatError(f"not valid JSON: {exc}") from exc
    return diagram_from_json(obj)


def save_diagram(d: SurgeryDiagram, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(diagram_to_json(d), fh, indent=2)
        fh.write("\n")
