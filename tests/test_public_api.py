"""Public API surface: everything advertised in __all__ exists, the
documented import paths work, and — the consumer rule, DESIGN §8 — every
module, public name and option of ``src/`` is used by non-test code."""

import ast
import functools
import importlib
from pathlib import Path

import pytest

PACKAGES = [
    "repro",
    "repro.baselines",
    "repro.core",
    "repro.datagen",
    "repro.eval",
    "repro.features",
    "repro.gbdt",
    "repro.nn",
    "repro.obs",
    "repro.serving",
    "repro.store",
    "repro.text",
]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_entries_resolve(package_name):
    package = importlib.import_module(package_name)
    assert hasattr(package, "__all__"), f"{package_name} lacks __all__"
    for name in package.__all__:
        assert hasattr(package, name), f"{package_name}.{name} missing"


@pytest.mark.parametrize("package_name", PACKAGES)
def test_module_docstrings_present(package_name):
    package = importlib.import_module(package_name)
    assert package.__doc__ and package.__doc__.strip()


def test_readme_quickstart_imports():
    from repro import (  # noqa: F401
        DataConfig,
        DocumentEncoder,
        JointModelConfig,
        JointUserEventModel,
        RepresentationService,
        RepresentationTrainer,
        TrainingConfig,
        build_dataset,
    )


def test_spans_module_folded_into_trace():
    # One module owns the span mechanism; the old path is gone, not shimmed.
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.obs.spans")
    from repro.obs.trace import Span, Tracer, record_stage, span  # noqa: F401


def test_version_string():
    import repro

    assert repro.__version__.count(".") == 2


def test_every_public_class_documented():
    """Every public callable exported by the top-level package carries
    a docstring — the (e) documentation deliverable, enforced."""
    import repro

    for name in repro.__all__:
        if name.startswith("__"):
            continue
        obj = getattr(repro, name)
        if callable(obj):
            assert obj.__doc__, f"repro.{name} lacks a docstring"


# ----------------------------------------------------------------------
# The consumer rule: a module, a name in ``__all__`` or an option (a
# defaulted keyword or config-dataclass field of a public callable)
# exists because code that is not a test uses it.  "Non-test code" is
# src/, bench/, benchmarks/ and examples/; identifiers are matched by
# bare name, so the check is a floor, not a proof.
# ----------------------------------------------------------------------

ROOT = Path(__file__).resolve().parents[1]
CONSUMER_DIRS = ("src", "bench", "benchmarks", "examples")

# Modules nothing imports, names nothing mentions and options nothing
# sets, each with the one reason it stays.
ALLOWED_MODULES = {
    "repro.nn.gradcheck": "test support: the finite-difference oracle of tests/nn "
    "and tests/core",
}
ALLOWED_NAMES = {
    "repro.analysis.engine.analyze_source": "test support: the one-source entry "
    "the rule tests and the fixture corpus drive",
    "repro.nn.gradcheck.numeric_gradient": "test support (gradient oracle)",
    "repro.nn.gradcheck.max_relative_error": "test support (gradient oracle)",
    "repro.nn.gradcheck.check_parameter_gradient": "test support (gradient oracle)",
    "repro.eval.metrics.roc_curve": "test support: the independent ROC that "
    "tests/eval/test_metrics.py integrates to cross-check roc_auc",
    "repro.obs.log.log_context": "test support: the scoped log sink tests "
    "capture the structured stream with",
    "repro.obs.trace.current_span": "test support: how tests/obs/test_spans.py "
    "observes context propagation across threads and tasks",
}
# Options no non-test call sets, by prefix of ``module.Name.member``.
KEPT_OPTIONS = {
    "repro.baselines.": "the published hyper-parameters of the baselines",
    "repro.datagen.topics.TopicModel.": "world-generator knobs; ROADMAP 1(c) "
    "sweeps the world next",
    "repro.core.config.JointModelConfig.paper(seed=)": "set by `cli train` "
    "through the _MODEL_SCALES table, a call the matcher cannot see",
    "repro.core.config.TrainingConfig.optimizer": "the paper trains with SGD; "
    "bench/tracing.py::layer_targets names nn.optim.SGD",
    "repro.core.model.JointUserEventModel.encode_": "batch_size: varied by "
    "tests/core/test_model.py::test_batching_invariance (DESIGN §6)",
    "repro.core.trainer.RepresentationTrainer.evaluate_loss(batch_size=)": "patched "
    "by bench/tracing.py::layer_targets; its shape is frozen",
    "repro.core.service.RepresentationService.__init__(cache=)": "how a "
    "deployment sets VectorCache.capacity",
    "repro.store.cache.VectorCache.capacity": "a deployment bound; bench/ reads "
    "stats.as_dict()['evictions']",
    "repro.store.index.EventIndex.": "patched by bench/tracing.py::layer_targets; "
    "initial_capacity is how the lock and parity suites reach growth in a few rows",
    "repro.eval.protocol.TwoStageExperiment.__init__(click_positive_weight=)": "the "
    "paper's §6 future-work setting (EXPERIMENTS.md)",
    "repro.gbdt.binning.FeatureBinner.__init__(max_bins=)": "test support: "
    "tests/gbdt/test_binning.py bins at 16-64 to check edges by hand",
    "repro.nn.params.ParamStore.create(trainable=)": "nn substrate contract: "
    "optimizers skip frozen parameters; no model freezes one today",
    "repro.nn.pooling.log_sum_exp_pool(center=)": "test support: the raw-LSE "
    "comparison proving the -log(n) shift keeps the softmax weights (DESIGN §6)",
}


class _Source:
    """One parsed non-test file: what it imports, mentions and calls."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.tree = ast.parse(path.read_text(encoding="utf-8"))
        self.is_init = path.name == "__init__.py"
        parts = path.relative_to(ROOT).with_suffix("").parts
        self.module = None
        if parts[0] == "src":
            self.module = ".".join(parts[1:-1] if self.is_init else parts[1:])
        package = self.module if self.is_init else (self.module or "").rpartition(".")[0]
        self.imports: set[str] = set()
        self.mentions: set[str] = set()
        self.calls: list[ast.Call] = []
        self.stores: set[str] = set()
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                self.imports.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    up = package.split(".")[: len(package.split(".")) - node.level + 1]
                    base = ".".join([*up, base] if base else up)
                self.imports.add(base)
                for alias in node.names:
                    self.imports.add(f"{base}.{alias.name}")
                    if not self.is_init:  # a re-export is not a use
                        self.mentions.add(alias.name)
            elif isinstance(node, ast.Name):
                self.mentions.add(node.id)
            elif isinstance(node, ast.Attribute):
                self.mentions.add(node.attr)
                if not isinstance(node.ctx, ast.Load):
                    self.stores.add(node.attr)
            elif isinstance(node, ast.Call):
                self.calls.append(node)

    @functools.cached_property
    def definitions(self) -> dict[str, ast.AST]:
        """Top-level ``name -> defining statement``."""
        found: dict[str, ast.AST] = {}
        for node in self.tree.body:
            if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                found[node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found.update({t.id: node for t in targets if isinstance(t, ast.Name)})
        return found

    @property
    def public(self) -> list[str]:
        value = getattr(self.definitions.get("__all__"), "value", None)
        return [element.value for element in getattr(value, "elts", [])]


@functools.cache
def _sources() -> list[_Source]:
    """Every non-test file: benchmarks/test_*.py are the paper's
    experiments, bench/test_selftest.py is a test."""
    return [
        _Source(path)
        for name in CONSUMER_DIRS
        for path in sorted((ROOT / name).rglob("*.py"))
        if not path.name.startswith("test_") or name == "benchmarks"
    ]


@functools.cache
def _live(module: str) -> frozenset[str]:
    """Top-level names of ``module`` that non-test code reaches: those
    another file mentions (or the allow-list vouches for), and whatever
    their definitions mention in turn — a consumed function's helper,
    return type or constant."""
    (source,) = (s for s in _sources() if s.module == module and not s.is_init)
    elsewhere = set().union(*(s.mentions for s in _sources() if s is not source))
    allowed = {
        name for name in source.definitions if f"{module}.{name}" in ALLOWED_NAMES
    }
    assert not allowed & elsewhere, f"stale allow-list entry in {module}"
    live = allowed | {name for name in source.definitions if name in elsewhere}
    frontier = list(live)
    while frontier:
        node = source.definitions[frontier.pop()]
        for inner in ast.walk(node):
            if isinstance(inner, ast.Name) and inner.id in source.definitions:
                if inner.id not in live:
                    live.add(inner.id)
                    frontier.append(inner.id)
    return frozenset(live)


def _modules() -> list[_Source]:
    return [
        s for s in _sources()
        if s.module and not s.is_init and s.path.name != "__main__.py"
    ]


def test_every_module_has_a_non_test_importer():
    """Imported by non-test code other than itself and its own
    package's ``__init__`` (a re-export is not a use)."""
    orphans = []
    for source in _modules():
        own = {source.path, source.path.parent / "__init__.py"}
        if not any(
            source.module in other.imports
            for other in _sources()
            if other.path not in own
        ):
            orphans.append(source.module)
    assert sorted(set(orphans) - set(ALLOWED_MODULES)) == []
    assert sorted(set(ALLOWED_MODULES) - set(orphans)) == [], "stale allow-list entry"


def test_every_public_name_has_a_non_test_consumer():
    unconsumed = [
        f"{source.module}.{name}"
        for source in _modules()
        for name in source.public
        if name not in _live(source.module)
    ]
    assert sorted(unconsumed) == []
    public = {f"{source.module}.{name}" for source in _modules() for name in source.public}
    assert sorted(set(ALLOWED_NAMES) - public) == [], "stale allow-list entry"
    # A package's __all__ re-exports names that passed the check above.
    passed = {name for source in _modules() for name in source.public}
    for source in _sources():
        if source.module and source.is_init:
            extra = [n for n in source.public if n not in passed and not n.startswith("__")]
            assert extra == [], f"{source.module}.__all__ exports {extra}"


def _defaulted(function: ast.FunctionDef) -> list[tuple[str, int | None]]:
    """``(parameter, positional index or None)`` for each default."""
    positional = function.args.posonlyargs + function.args.args
    skip = 1 if positional and positional[0].arg in ("self", "cls") else 0
    first = len(positional) - len(function.args.defaults)
    found = [(arg.arg, i - skip) for i, arg in enumerate(positional) if i >= first]
    found += [
        (arg.arg, None)
        for arg, default in zip(function.args.kwonlyargs, function.args.kw_defaults)
        if default is not None
    ]
    return found


def _is_set(callee: str, parameter: str, index: int | None, within: ast.AST | None) -> bool:
    """Does a non-test call of ``callee`` outside ``within`` pass
    ``parameter`` — by keyword (``dataclasses.replace`` included), by
    position or through ``**``?"""
    own = {id(node) for node in ast.walk(within)} if within is not None else set()
    for source in _sources():
        for call in source.calls:
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            if id(call) in own or name not in (callee, "replace"):
                continue
            if any(
                keyword.arg == parameter or (keyword.arg is None and name == callee)
                for keyword in call.keywords
            ):
                return True
            if name == callee and index is not None and (
                len(call.args) > index
                or any(isinstance(arg, ast.Starred) for arg in call.args)
            ):
                return True
    return False


def _unset_keywords(label: str, callee: str, function: ast.FunctionDef) -> list[str]:
    return [
        f"{label}({parameter}=)"
        for parameter, index in _defaulted(function)
        if not _is_set(callee, parameter, index, function)
    ]


def _unset_fields(label: str, node: ast.ClassDef) -> list[str]:
    """Defaulted dataclass fields that no call, no ``cls(...)`` preset
    of the class and no attribute store ever sets.  A field without a
    default is not an option, and one built by ``field(...)`` or stored
    to somewhere is a record the code fills in."""
    decorators = [getattr(d, "func", d) for d in node.decorator_list]
    if not any(getattr(d, "id", getattr(d, "attr", "")) == "dataclass" for d in decorators):
        return []
    presets = {
        keyword.arg
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and getattr(call.func, "id", "") == "cls"
        for keyword in call.keywords
    }
    stored = set().union(*(source.stores for source in _sources()))
    fields = [s for s in node.body if isinstance(s, ast.AnnAssign)]
    return [
        f"{label}.{field.target.id}"
        for index, field in enumerate(fields)
        if field.value is not None
        and getattr(getattr(field.value, "func", None), "id", "") != "field"
        and field.target.id not in presets | stored
        and not _is_set(node.name, field.target.id, index, None)
    ]


def _unset_options() -> list[str]:
    unset = []
    for source in _modules():
        for name in source.public:
            label = f"{source.module}.{name}"
            node = source.definitions.get(name)
            if label in ALLOWED_NAMES:
                continue  # test support: its options are the tests'
            if isinstance(node, ast.FunctionDef):
                unset += _unset_keywords(label, name, node)
            elif isinstance(node, ast.ClassDef):
                unset += _unset_fields(label, node)
                for method in node.body:
                    if isinstance(method, ast.FunctionDef) and (
                        method.name == "__init__" or not method.name.startswith("_")
                    ):
                        callee = name if method.name == "__init__" else method.name
                        unset += _unset_keywords(f"{label}.{method.name}", callee, method)
    return unset


def test_every_option_is_set_by_non_test_code():
    """One value in use means a constant, not an option."""
    unset = _unset_options()
    assert [o for o in unset if not o.startswith(tuple(KEPT_OPTIONS))] == []
    stale = [k for k in KEPT_OPTIONS if not any(o.startswith(k) for o in unset)]
    assert stale == [], "stale kept-list entry"
