"""Manifest linting: validate every statement, report every problem at once.

``lint_manifest`` walks the raw parsed manifest and checks each field —
types, registry membership (benchmarks, scenarios, methods, scales,
weak-supervision modes), value ranges, config-override names, and
cross-field constraints — accumulating :class:`LintIssue` records instead of
raising on the first problem.  Each issue carries the dotted field path and
the source line, so a campaign author fixes a whole manifest in one edit
cycle.  When no *errors* remain (warnings are fine), the report carries the
fully typed :class:`~repro.manifests.schema.ManifestDocument`.

Linting never touches datasets or artifact stores: name checks go through
the registries' name lists only, so ``repro manifest lint`` is safe to run
anywhere, including machines without the disk or time for a benchmark build.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro._suggest import unknown_name_message
from repro.active.weak_supervision import WeakSupervisionMode
from repro.config import available_scales
from repro.datasets.registry import available_benchmarks
from repro.experiments.engine import ACTIVE_LEARNING_METHODS
from repro.manifests.parser import FieldPath, ManifestSource
from repro.manifests.schema import (
    ExecutionPolicy,
    GridStatement,
    ManifestDocument,
    ManifestSettings,
)
from repro.neural.featurizer import FeaturizerConfig
from repro.neural.matcher import MatcherConfig
from repro.scenarios import available_scenarios

_TOP_LEVEL_KEYS = ("manifest", "settings", "execution", "grid")
_SETTINGS_KEYS = ("scale", "iterations", "budget_per_iteration", "seed_size",
                  "base_random_seed", "matcher", "featurizer")
_GRID_KEYS = ("datasets", "methods", "scenarios", "seeds", "alphas", "beta",
              "weak_supervision")


def render_field_path(path: FieldPath) -> str:
    """``("grid", 0, "datasets", 1)`` → ``"grid[0].datasets[1]"``."""
    rendered = ""
    for part in path:
        if isinstance(part, int):
            rendered += f"[{part}]"
        else:
            rendered += f".{part}" if rendered else str(part)
    return rendered or "<document>"


@dataclass(frozen=True)
class LintIssue:
    """One problem found in a manifest, anchored to a field and a line."""

    severity: str  # "error" | "warning"
    field: str
    message: str
    line: int | None = None

    def render(self) -> str:
        location = f" (line {self.line})" if self.line is not None else ""
        return f"{self.severity}: {self.field}: {self.message}{location}"


@dataclass
class LintReport:
    """Everything ``lint_manifest`` found, plus the typed document if clean."""

    issues: list[LintIssue] = field(default_factory=list)
    document: ManifestDocument | None = None

    @property
    def errors(self) -> list[LintIssue]:
        return [issue for issue in self.issues if issue.severity == "error"]

    @property
    def warnings(self) -> list[LintIssue]:
        return [issue for issue in self.issues if issue.severity == "warning"]

    @property
    def ok(self) -> bool:
        return not self.errors

    def render(self) -> str:
        return "\n".join(issue.render() for issue in self.issues)


class _Linter:
    """Stateful walk over one manifest source, accumulating issues."""

    def __init__(self, source: ManifestSource) -> None:
        self.source = source
        self.issues: list[LintIssue] = []

    # -- issue plumbing ---------------------------------------------------- #
    def error(self, path: FieldPath, message: str) -> None:
        self.issues.append(LintIssue("error", render_field_path(path), message,
                                     self.source.source_map.line_for(path)))

    def warning(self, path: FieldPath, message: str) -> None:
        self.issues.append(LintIssue("warning", render_field_path(path),
                                     message,
                                     self.source.source_map.line_for(path)))

    # -- typed readers (each reports and returns a safe fallback) ---------- #
    def read_str(self, table: dict, key: str, path: FieldPath,
                 default: str = "") -> str:
        value = table.get(key, default)
        if not isinstance(value, str):
            self.error(path + (key,),
                       f"expected a string, got {type(value).__name__}")
            return default
        return value

    def read_int(self, table: dict, key: str, path: FieldPath,
                 default: int | None, minimum: int = 1) -> int | None:
        if key not in table:
            return default
        value = table[key]
        if isinstance(value, bool) or not isinstance(value, int):
            self.error(path + (key,),
                       f"expected an integer, got {type(value).__name__}")
            return default
        if value < minimum:
            self.error(path + (key,), f"must be >= {minimum}, got {value}")
            return default
        return value

    def read_unit_float(self, table: dict, key: str, path: FieldPath,
                        default: float) -> float:
        if key not in table:
            return default
        value = table[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            self.error(path + (key,),
                       f"expected a number, got {type(value).__name__}")
            return default
        if not 0.0 <= value <= 1.0:
            self.error(path + (key,), f"must be in [0, 1], got {value}")
            return default
        return float(value)

    def read_positive_float(self, table: dict, key: str,
                            path: FieldPath) -> float | None:
        if key not in table:
            return None
        value = table[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            self.error(path + (key,),
                       f"expected a number, got {type(value).__name__}")
            return None
        if value <= 0:
            self.error(path + (key,), f"must be > 0, got {value}")
            return None
        return float(value)

    def read_bool(self, table: dict, key: str, path: FieldPath,
                  default: bool) -> bool:
        if key not in table:
            return default
        value = table[key]
        if not isinstance(value, bool):
            self.error(path + (key,),
                       f"expected a boolean, got {type(value).__name__}")
            return default
        return value

    def read_name_list(self, table: dict, key: str, path: FieldPath,
                       kind: str, known: tuple[str, ...],
                       required: bool) -> tuple[str, ...]:
        if key not in table:
            if required:
                self.error(path, f"missing required key {key!r}")
            return ()
        value = table[key]
        if not isinstance(value, list):
            self.error(path + (key,),
                       f"expected a list of names, got {type(value).__name__}")
            return ()
        if required and not value:
            self.error(path + (key,), "must not be empty")
        names: list[str] = []
        for index, entry in enumerate(value):
            if not isinstance(entry, str):
                self.error(path + (key, index),
                           f"expected a string, got {type(entry).__name__}")
                continue
            if entry not in known:
                self.error(path + (key, index),
                           unknown_name_message(kind, entry, known))
                continue
            names.append(entry)
        return tuple(names)

    def check_unknown_keys(self, table: dict, allowed: tuple[str, ...],
                           path: FieldPath, kind: str) -> None:
        for key in table:
            if key not in allowed:
                self.error(path + (key,),
                           unknown_name_message(f"{kind} key", key, allowed))

    # -- sections ----------------------------------------------------------- #
    def lint_header(self) -> tuple[str, str]:
        header = self.source.data.get("manifest")
        if not isinstance(header, dict):
            self.error(("manifest",),
                       "missing required [manifest] section with a 'name'")
            return "", ""
        self.check_unknown_keys(header, ("name", "description"),
                                ("manifest",), "manifest")
        name = self.read_str(header, "name", ("manifest",))
        if "name" not in header or not name.strip():
            self.error(("manifest", "name"),
                       "every manifest needs a non-empty name")
        description = self.read_str(header, "description", ("manifest",))
        return name.strip(), description

    def lint_config_overrides(
        self, table: object, path: FieldPath, config_cls: type,
    ) -> tuple[tuple[str, object], ...]:
        if table is None:
            return ()
        if not isinstance(table, dict):
            self.error(path, f"expected a table of {config_cls.__name__} "
                             f"overrides, got {type(table).__name__}")
            return ()
        known = {f.name: f for f in dataclasses.fields(config_cls)}
        overrides: dict[str, object] = {}
        for key, value in table.items():
            if key not in known:
                self.error(path + (key,),
                           unknown_name_message(
                               f"{config_cls.__name__} field", key, known))
                continue
            if isinstance(value, list):
                if not all(isinstance(item, int) and not isinstance(item, bool)
                           for item in value):
                    self.error(path + (key,),
                               "expected a list of integers")
                    continue
                overrides[key] = tuple(value)
            elif isinstance(value, (bool, int, float, str)):
                overrides[key] = value
            else:
                self.error(path + (key,),
                           f"unsupported value type {type(value).__name__}")
        if overrides:
            try:  # the config's own __post_init__ knows its invariants
                config_cls(**overrides)
            except (TypeError, ValueError) as error:
                self.error(path, str(error))
        return tuple(sorted(overrides.items()))

    def lint_settings(self) -> ManifestSettings:
        table = self.source.data.get("settings")
        if table is None:
            return ManifestSettings()
        path: FieldPath = ("settings",)
        if not isinstance(table, dict):
            self.error(path, f"expected a table, got {type(table).__name__}")
            return ManifestSettings()
        self.check_unknown_keys(table, _SETTINGS_KEYS, path, "settings")
        scale = self.read_str(table, "scale", path, default="small") or "small"
        if "scale" in table and isinstance(table["scale"], str) \
                and scale not in available_scales():
            self.error(path + ("scale",),
                       unknown_name_message("scale", scale, available_scales()))
            scale = "small"
        return ManifestSettings(
            scale=scale,
            iterations=self.read_int(table, "iterations", path, None),
            budget_per_iteration=self.read_int(table, "budget_per_iteration",
                                               path, None),
            seed_size=self.read_int(table, "seed_size", path, None),
            base_random_seed=self.read_int(table, "base_random_seed", path, 7,
                                           minimum=0) or 0,
            matcher_overrides=self.lint_config_overrides(
                table.get("matcher"), path + ("matcher",), MatcherConfig),
            featurizer_overrides=self.lint_config_overrides(
                table.get("featurizer"), path + ("featurizer",),
                FeaturizerConfig),
        )

    def lint_execution(self) -> ExecutionPolicy | None:
        """The optional ``[execution]`` section, keyed by ExecutionPolicy's fields.

        Bounds mirror :class:`repro.experiments.faults.RetryPolicy`'s own
        invariants, so every value the linter accepts constructs a valid
        policy at build time.
        """
        table = self.source.data.get("execution")
        if table is None:
            return None
        path: FieldPath = ("execution",)
        if not isinstance(table, dict):
            self.error(path, f"expected a table, got {type(table).__name__}")
            return None
        keys = tuple(f.name for f in dataclasses.fields(ExecutionPolicy))
        self.check_unknown_keys(table, keys, path, "execution")
        return ExecutionPolicy(
            max_attempts=self.read_int(table, "max_attempts", path, None),
            timeout=self.read_positive_float(table, "timeout", path),
            keep_going=self.read_bool(table, "keep_going", path, False),
        )

    def lint_seeds(self, table: dict,
                   path: FieldPath) -> tuple[int, ...] | None:
        if "seeds" not in table:
            return None
        value = table["seeds"]
        seeds_path = path + ("seeds",)
        if not isinstance(value, list):
            self.error(seeds_path,
                       f"expected a list of seeds, got {type(value).__name__}")
            return None
        if not value:
            self.error(seeds_path, "must not be empty")
        seeds: list[int] = []
        for index, entry in enumerate(value):
            if isinstance(entry, bool) or not isinstance(entry, int):
                self.error(seeds_path + (index,),
                           f"expected an integer seed, got "
                           f"{type(entry).__name__}")
            elif entry < 0:
                self.error(seeds_path + (index,),
                           f"must be >= 0, got {entry}")
            else:
                seeds.append(entry)
        return tuple(seeds)

    def lint_alphas(self, table: dict, path: FieldPath,
                    methods: tuple[str, ...]) -> tuple[float, ...] | None:
        if "alphas" not in table:
            return None
        value = table["alphas"]
        alphas_path = path + ("alphas",)
        if not isinstance(value, list) or not value:
            self.error(alphas_path, "expected a non-empty list of α values")
            return None
        alphas: list[float] = []
        for index, entry in enumerate(value):
            if isinstance(entry, bool) or not isinstance(entry, (int, float)):
                self.error(alphas_path + (index,),
                           f"expected a number, got {type(entry).__name__}")
                continue
            if not 0.0 <= entry <= 1.0:
                self.error(alphas_path + (index,),
                           f"α must be in [0, 1], got {entry}")
                continue
            alphas.append(float(entry))
        if methods and "battleship" not in methods:
            self.error(alphas_path,
                       "alphas only affect the battleship method; this grid "
                       f"runs {', '.join(methods)}")
        elif methods and set(methods) != {"battleship"}:
            self.warning(alphas_path,
                         "non-battleship methods in this grid ignore alphas "
                         "and run a single nominal α = 0.5")
        return tuple(alphas) if alphas else None

    def lint_weak_supervision(self, table: dict, path: FieldPath) -> str:
        if "weak_supervision" not in table:
            return "selector"
        value = table["weak_supervision"]
        modes = tuple(mode.value for mode in WeakSupervisionMode)
        if not isinstance(value, str):
            self.error(path + ("weak_supervision",),
                       f"expected a string, got {type(value).__name__}")
            return "selector"
        if value not in modes:
            self.error(path + ("weak_supervision",),
                       unknown_name_message("weak-supervision mode", value,
                                            modes))
            return "selector"
        return value

    def lint_grid(self, table: object, index: int) -> GridStatement | None:
        path: FieldPath = ("grid", index)
        if not isinstance(table, dict):
            self.error(path, f"expected a table, got {type(table).__name__}")
            return None
        self.check_unknown_keys(table, _GRID_KEYS, path, "grid")
        datasets = self.read_name_list(table, "datasets", path, "benchmark",
                                       available_benchmarks(), required=True)
        methods = self.read_name_list(table, "methods", path, "method",
                                      ACTIVE_LEARNING_METHODS, required=True)
        scenarios = self.read_name_list(table, "scenarios", path, "scenario",
                                        available_scenarios(), required=False)
        return GridStatement(
            datasets=datasets,
            methods=methods,
            scenarios=scenarios or ("perfect",),
            seeds=self.lint_seeds(table, path),
            alphas=self.lint_alphas(table, path, methods),
            beta=self.read_unit_float(table, "beta", path, 0.5),
            weak_supervision=self.lint_weak_supervision(table, path),
        )

    def lint(self) -> LintReport:
        self.check_unknown_keys(self.source.data, _TOP_LEVEL_KEYS, (),
                                "manifest section")
        name, description = self.lint_header()
        settings = self.lint_settings()
        execution = self.lint_execution()

        raw_grids = self.source.data.get("grid", [])
        if not isinstance(raw_grids, list):
            self.error(("grid",), "expected an array of [[grid]] tables")
            raw_grids = []
        grids = [self.lint_grid(table, index)
                 for index, table in enumerate(raw_grids)]
        if not raw_grids:
            self.error((), "a manifest needs at least one [[grid]] section")

        report = LintReport(issues=self.issues)
        if report.ok:
            report.document = ManifestDocument(
                name=name,
                description=description,
                settings=settings,
                grids=tuple(grid for grid in grids if grid is not None),
                execution=execution,
            )
        return report


def lint_manifest(source: ManifestSource) -> LintReport:
    """Validate ``source`` completely, reporting every issue in one pass."""
    return _Linter(source).lint()
