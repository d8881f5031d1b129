"""soundness-boundary: keep the abstract side abstract, and oracle-backed.

Three checks, all rooted in the paper's core obligation (the abstract
learner must over-approximate every concrete poisoned run):

1. **No concrete-learner imports in abstract code.**  Modules under
   ``verify/`` and ``domains/`` that implement abstract transformers must
   not import or reference the concrete learner
   (``DecisionTreeLearner``/``TraceLearner``/``learn_trace``/
   ``evaluate_accuracy``) — concrete results leaking into a transformer
   silently breaks over-approximation.  Driver modules that *intentionally*
   bridge the two worlds (search drivers, enumeration oracles) are
   exempt.

2. **No raw float comparisons on Interval bounds.**  ``iv.hi <= x`` in a
   transformer hand-rolls domain logic the ``Interval`` type owns; bound
   ordering decisions must go through named helpers (``upper_at_most``,
   ``dominates``, ``is_subset_of``, ...) so the soundness argument lives in
   one audited place.  ``domains/interval.py`` itself is exempt — it *is*
   the audited place.

3. **Every vectorized kernel has a registered scalar oracle.**  Each entry
   in the kernel registry names a numpy kernel, its scalar reference
   implementation, and the property-test module that must exercise both.
   A kernel whose oracle or test disappears (or a new kernel added without
   registering one) is a finding.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple

from repro.analysis.core import Finding, Project, SourceModule, register

RULE_NAME = "soundness-boundary"

# Abstract-side scopes (path prefixes, repo-relative under the scan roots).
DEFAULT_SCOPES: Tuple[str, ...] = (
    "repro/verify/",
    "repro/domains/",
    "repro/poisoning/label_flip.py",
)

# Drivers and oracles that intentionally touch the concrete learner.
# label_flip.py hosts the flip family's *driver* (predicted-class computation
# runs the concrete TraceLearner) alongside its transformers; its kernels are
# still covered by the bound-comparison and oracle-registry checks below.
DEFAULT_IMPORT_EXEMPT: Tuple[str, ...] = (
    "repro/verify/search.py",
    "repro/verify/enumeration.py",
    "repro/verify/result.py",
    "repro/poisoning/label_flip.py",
)

# The Interval implementation itself compares raw bounds by definition.
DEFAULT_COMPARE_EXEMPT: Tuple[str, ...] = ("repro/domains/interval.py",)

BANNED_MODULES: Tuple[str, ...] = ("repro.core.learner", "repro.core.trace_learner")
BANNED_NAMES: Tuple[str, ...] = (
    "DecisionTreeLearner",
    "TraceLearner",
    "learn_trace",
    "evaluate_accuracy",
)

BOUND_ATTRS = frozenset({"lo", "hi"})
_ORDER_OPS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


@dataclass(frozen=True)
class KernelSpec:
    """A vectorized kernel, its scalar oracle, and the test proving parity."""

    module: str  # path suffix of the defining module
    kernel: str
    oracle: str
    test: str  # repo-relative path of the property-test module


DEFAULT_KERNELS: Tuple[KernelSpec, ...] = (
    KernelSpec(
        "repro/verify/transformers.py",
        "_split_score_bounds",
        "_side_score_bounds_reference",
        "tests/verify/test_vectorized_kernels.py",
    ),
    KernelSpec(
        "repro/verify/transformers.py",
        "_screened_selection",
        "_selection",
        "tests/verify/test_vectorized_kernels.py",
    ),
    KernelSpec(
        "repro/verify/transformers.py",
        "_table_selections",
        "_selection",
        "tests/verify/test_vectorized_kernels.py",
    ),
    KernelSpec(
        "repro/verify/transformers.py",
        "_table_selections",
        "_screened_selection",
        "tests/verify/test_vectorized_kernels.py",
    ),
    KernelSpec(
        "repro/verify/transformers.py",
        "filter_closed_form",
        "filter_abstract",
        "tests/verify/test_vectorized_kernels.py",
    ),
    KernelSpec(
        "repro/verify/transformers.py",
        "_split_score_bounds",
        "_flip_split_score_bounds_reference",
        "tests/verify/test_vectorized_kernels.py",
    ),
    KernelSpec(
        "repro/verify/transformers.py",
        "exit_bounds",
        "cprob_optimal",
        "tests/verify/test_vectorized_kernels.py",
    ),
    KernelSpec(
        "repro/verify/transformers.py",
        "exit_bounds",
        "cprob_box",
        "tests/verify/test_vectorized_kernels.py",
    ),
    KernelSpec(
        "repro/verify/transformers.py",
        "state_exits",
        "cprob_intervals",
        "tests/verify/test_vectorized_kernels.py",
    ),
    KernelSpec(
        "repro/verify/transformers.py",
        "state_exits",
        "entropy_is_definitely_zero",
        "tests/verify/test_vectorized_kernels.py",
    ),
    KernelSpec(
        "repro/verify/transformers.py",
        "state_exits",
        "pure_exit_vector",
        "tests/verify/test_vectorized_kernels.py",
    ),
    KernelSpec(
        "repro/domains/interval.py",
        "dominating_components",
        "dominating_component",
        "tests/verify/test_vectorized_kernels.py",
    ),
    KernelSpec(
        "repro/core/splitter.py",
        "_score_candidates",
        "_score_candidates_reference",
        "tests/core/test_splitter_oracle.py",
    ),
)


def _in_scope(path: str, scopes: Sequence[str]) -> bool:
    return any(scope in path for scope in scopes)


def _defined_functions(module: SourceModule) -> set:
    return {
        node.name
        for node in ast.walk(module.tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _referenced_names(module: SourceModule) -> set:
    names = set()
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


@register
class SoundnessBoundaryRule:
    name = RULE_NAME
    description = (
        "abstract transformers stay concrete-free, bound comparisons go through "
        "Interval helpers, vectorized kernels keep scalar oracles under test"
    )

    def __init__(
        self,
        scopes: Sequence[str] = DEFAULT_SCOPES,
        import_exempt: Sequence[str] = DEFAULT_IMPORT_EXEMPT,
        compare_exempt: Sequence[str] = DEFAULT_COMPARE_EXEMPT,
        kernels: Sequence[KernelSpec] = DEFAULT_KERNELS,
    ) -> None:
        self.scopes = tuple(scopes)
        self.import_exempt = tuple(import_exempt)
        self.compare_exempt = tuple(compare_exempt)
        self.kernels = tuple(kernels)

    # ------------------------------------------------------------------ check
    def check(self, project: Project) -> Iterator[Finding]:
        for module in project.iter_modules():
            if not _in_scope(module.path, self.scopes):
                continue
            if not _in_scope(module.path, self.import_exempt):
                yield from self._check_concrete_imports(module)
            if not _in_scope(module.path, self.compare_exempt):
                yield from self._check_bound_comparisons(module)
        yield from self._check_kernel_registry(project)

    # -- 1. concrete-learner leakage ------------------------------------
    def _check_concrete_imports(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                if any(node.module.startswith(banned) for banned in BANNED_MODULES):
                    yield self._import_finding(module, node.lineno, node.module)
                else:
                    for alias in node.names:
                        if alias.name in BANNED_NAMES:
                            yield self._import_finding(module, node.lineno, alias.name)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if any(alias.name.startswith(banned) for banned in BANNED_MODULES):
                        yield self._import_finding(module, node.lineno, alias.name)

    def _import_finding(self, module: SourceModule, line: int, what: str) -> Finding:
        return Finding(
            rule=self.name,
            path=module.path,
            line=line,
            message=f"abstract-side module imports concrete learner `{what}`",
            hint=(
                "abstract transformers must not call the concrete learner; move "
                "the bridge into verify/enumeration.py or verify/search.py"
            ),
        )

    # -- 2. raw bound comparisons ---------------------------------------
    def _check_bound_comparisons(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, _ORDER_OPS) for op in node.ops):
                continue
            operands = [node.left, *node.comparators]
            for operand in operands:
                if isinstance(operand, ast.Attribute) and operand.attr in BOUND_ATTRS:
                    yield Finding(
                        rule=self.name,
                        path=module.path,
                        line=node.lineno,
                        message=(
                            f"raw float comparison on Interval bound `.{operand.attr}`"
                        ),
                        hint=(
                            "use an Interval helper (upper_at_most/lower_at_least/"
                            "dominates/is_subset_of) so bound logic stays in the "
                            "audited domain type"
                        ),
                    )
                    break  # one finding per comparison

    # -- 3. kernel/oracle registry --------------------------------------
    def _check_kernel_registry(self, project: Project) -> Iterator[Finding]:
        for spec in self.kernels:
            module = project.find_module(spec.module)
            if module is None:
                yield Finding(
                    rule=self.name,
                    path=spec.module,
                    line=1,
                    message=f"kernel registry names missing module {spec.module}",
                    hint="update DEFAULT_KERNELS in repro/analysis/rules/soundness.py",
                )
                continue
            defined = _defined_functions(module)
            for role, func in (("kernel", spec.kernel), ("scalar oracle", spec.oracle)):
                if func not in defined:
                    yield Finding(
                        rule=self.name,
                        path=module.path,
                        line=1,
                        message=f"registered {role} `{func}` not defined in module",
                        hint="re-add the function or update the kernel registry",
                    )
            test_module = project.load(spec.test)
            if test_module is None:
                yield Finding(
                    rule=self.name,
                    path=spec.test,
                    line=1,
                    message=f"kernel parity test module {spec.test} is missing",
                    hint=f"add a property test comparing {spec.kernel} to {spec.oracle}",
                )
                continue
            referenced = _referenced_names(test_module)
            for func in (spec.kernel, spec.oracle):
                if func not in referenced:
                    yield Finding(
                        rule=self.name,
                        path=test_module.path,
                        line=1,
                        message=(
                            f"parity test never references `{func}` "
                            f"(registered for {spec.module})"
                        ),
                        hint="exercise both the kernel and its scalar oracle in the test",
                    )
