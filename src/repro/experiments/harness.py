"""Experiment infrastructure: results, registry, shape checks."""

from __future__ import annotations

import abc
import dataclasses

from ..errors import ExperimentError
from ..units import MiB


@dataclasses.dataclass
class Series:
    """One line of a figure: label + (x, y) points."""

    label: str
    x: list
    y: list[float]

    def __post_init__(self) -> None:
        if len(self.x) != len(self.y):
            raise ExperimentError(
                f"series {self.label!r}: {len(self.x)} x vs {len(self.y)} y"
            )


@dataclasses.dataclass
class ExperimentResult:
    """The reproduced table/figure plus provenance."""

    exp_id: str
    title: str
    x_label: str
    y_label: str
    series: list[Series]
    #: What the paper reports (free-form bullet strings).
    paper_claims: list[str] = dataclasses.field(default_factory=list)
    #: Observations from this run (filled by the driver).
    notes: list[str] = dataclasses.field(default_factory=list)
    #: Shape-check failures (empty == reproduced).
    failures: list[str] = dataclasses.field(default_factory=list)
    #: Extra tables keyed by name (e.g. Table III distributions).
    extras: dict = dataclasses.field(default_factory=dict)

    def get(self, label: str) -> Series:
        for series in self.series:
            if series.label == label:
                return series
        raise ExperimentError(f"{self.exp_id}: no series {label!r}")

    def improvements(self, base: str, new: str) -> list[float]:
        """Percent improvement of series ``new`` over ``base`` per x."""
        b, n = self.get(base), self.get(new)
        return [
            (nv / bv - 1.0) * 100.0 if bv > 0 else 0.0
            for bv, nv in zip(b.y, n.y)
        ]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_text(self) -> str:
        """Render the figure/table as an aligned text table."""
        lines = [f"{self.exp_id}: {self.title}"]
        header = [self.x_label] + [s.label for s in self.series]
        rows = [header]
        for i, x in enumerate(self.series[0].x):
            row = [str(x)]
            for series in self.series:
                row.append(f"{series.y[i]:.2f}")
            rows.append(row)
        widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
        for row in rows:
            lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        for name, table in self.extras.items():
            lines.append(f"-- {name} --")
            if hasattr(table, "as_dict"):
                table = table.as_dict()
            lines.append(str(table))
        for note in self.notes:
            lines.append(f"note: {note}")
        for failure in self.failures:
            lines.append(f"SHAPE MISMATCH: {failure}")
        return "\n".join(lines)


class Experiment(abc.ABC):
    """Base class; subclasses register themselves by exp_id."""

    #: e.g. "fig6a"; also the registry key and bench target name.
    exp_id: str = ""
    title: str = ""
    #: 1.0 reproduces the paper's sizes; the default is tractable.
    default_scale: float = 1.0

    @abc.abstractmethod
    def measure(self, scale: float):
        """Run the simulations at ``scale``; return what :meth:`view` renders.

        Experiments whose classes inherit one ``measure`` are views of
        one campaign (Fig. 6a/6b are the write and read side of the
        same runs): the sweep calls it once and renders every view from
        the returned data.  Such views may differ only in presentation
        attributes (``exp_id``, ``title``, ``op``, ``PAPER_CLAIMS``),
        and ``measure`` must not read those.  An experiment with a
        ``measure`` of its own may return the finished artefact.
        """

    def view(self, data, scale: float) -> ExperimentResult:
        """Render the artefact from :meth:`measure`'s ``data``.

        Default: ``data`` already is the artefact.  A view must not
        mutate ``data``: the other views of its campaign read it too.
        """
        return data

    def run(self, scale: float | None = None) -> ExperimentResult:
        """Measure and render this one view (``None``: default scale)."""
        scale = self.default_scale if scale is None else scale
        return self.view(self.measure(scale), scale)

    def check_shape(self, result: ExperimentResult) -> list[str]:
        """Return shape-mismatch descriptions (empty == reproduced).

        Default: nothing to check; drivers override.
        """
        return []

    def checked(self, result: ExperimentResult) -> ExperimentResult:
        """A copy of ``result`` with its shape-check failures filled in.

        A copy, not an update: a single experiment's view *is* its
        measured data, which the caller may still hold.
        """
        return dataclasses.replace(result, failures=self.check_shape(result))

    def run_checked(self, scale: float | None = None) -> ExperimentResult:
        return self.checked(self.run(scale))


def fingerprint(result: ExperimentResult) -> dict:
    """Canonical bit-exact JSON form of a result's numeric content.

    Floats are rendered with ``float.hex`` so two results compare equal
    iff their series are *bit-identical* — the determinism gate the
    perf work is held to (same seeds -> same bits, see
    tests/experiments/test_golden_determinism.py).
    """

    def num(value):
        return float(value).hex() if isinstance(value, float) else repr(value)

    return {
        "exp_id": result.exp_id,
        "x_label": result.x_label,
        "y_label": result.y_label,
        "series": [
            {
                "label": s.label,
                "x": [num(x) for x in s.x],
                "y": [float(v).hex() for v in s.y],
            }
            for s in result.series
        ],
        "failures": list(result.failures),
    }


def fingerprint_digest(result: ExperimentResult) -> str:
    """SHA-256 over the canonical fingerprint (golden-hash fixtures)."""
    import hashlib
    import json

    blob = json.dumps(fingerprint(result), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


#: The golden determinism points, ``(exp_id, scale)``: every experiment,
#: so every campaign, at the smallest scale that still exercises the
#: cache as its default scale does (each admission, eviction, flush and
#: fetch counter that is nonzero at the default scale is nonzero here).
#: ``tests/experiments/golden_results.json`` pins each point's
#: fingerprint, and the sweep receipt drains the same points.
GOLDEN_POINTS: list[tuple[str, float]] = [
    ("fig1", 0.05),
    ("fig6a", 0.05),
    ("fig6b", 0.05),
    ("fig7a", 0.05),
    ("fig7b", 0.05),
    ("fig8a", 0.05),
    ("fig8b", 0.05),
    ("fig9a", 0.1),
    ("fig9b", 0.1),
    ("fig10a", 0.05),
    ("fig10b", 0.05),
    ("fig11", 0.05),
    ("table3", 0.05),
    ("table4", 0.05),
    ("metadata", 0.05),
    ("ext_carl", 0.05),
    ("ext_memcache", 0.05),
    ("ablation_policy", 0.05),
    ("ablation_rebuilder", 0.05),
    ("ablation_costmodel", 0.05),
]


REGISTRY: dict[str, Experiment] = {}


def register(cls: type[Experiment]) -> type[Experiment]:
    """Class decorator: instantiate and register an experiment."""
    instance = cls()
    if not instance.exp_id:
        raise ExperimentError(f"{cls.__name__} has no exp_id")
    if instance.exp_id in REGISTRY:
        raise ExperimentError(f"duplicate experiment id {instance.exp_id!r}")
    REGISTRY[instance.exp_id] = instance
    return cls


def get_experiment(exp_id: str) -> Experiment:
    try:
        return REGISTRY[exp_id]
    except KeyError:
        raise ExperimentError(
            f"unknown experiment {exp_id!r}; have {sorted(REGISTRY)}"
        ) from None


def list_experiments() -> list[str]:
    return sorted(REGISTRY)


def mb(value_bytes_per_s: float) -> float:
    """Bytes/s -> MB/s for reporting."""
    return value_bytes_per_s / MiB
