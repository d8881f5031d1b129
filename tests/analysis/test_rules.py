"""Per-rule fixture tests: each rule fires, stays quiet on clean code, and
honours ``# repro: ignore[rule]`` suppressions."""

import textwrap

from repro.analysis.core import run_analysis
from repro.analysis.rules.exception_taxonomy import Boundary, ExceptionTaxonomyRule
from repro.analysis.rules.lock_discipline import (
    AttrGuard,
    GlobalGuard,
    LockDisciplineRule,
)
from repro.analysis.rules.metric_hygiene import MetricHygieneRule
from repro.analysis.rules.schema_drift import SchemaDriftRule, SchemaSpec
from repro.analysis.rules.soundness import KernelSpec, SoundnessBoundaryRule


def _write(root, relpath, text):
    path = root / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(text), encoding="utf-8")


def _run(tmp_path, rule, paths=("src",)):
    report = run_analysis(tmp_path, paths=paths, rules=[rule])
    return report


class TestLockDiscipline:
    def _rule(self):
        return LockDisciplineRule(
            attr_guards=[AttrGuard("mod.py", ("Widget",), ("items",), "_lock")],
            global_guards=[GlobalGuard("glob.py", ("_state",), "_glock")],
        )

    def test_unlocked_access_fires(self, tmp_path):
        _write(
            tmp_path,
            "src/mod.py",
            """
            class Widget:
                def __init__(self):
                    self.items = []

                def size(self):
                    return len(self.items)
            """,
        )
        report = _run(tmp_path, self._rule())
        assert [f.rule for f in report.new_findings] == ["lock-discipline"]
        assert "size()" in report.new_findings[0].message

    def test_locked_access_is_clean(self, tmp_path):
        _write(
            tmp_path,
            "src/mod.py",
            """
            class Widget:
                def size(self):
                    with self._lock:
                        return len(self.items)
            """,
        )
        assert _run(tmp_path, self._rule()).ok

    def test_locked_suffix_convention_is_exempt(self, tmp_path):
        _write(
            tmp_path,
            "src/mod.py",
            """
            class Widget:
                def _size_locked(self):
                    return len(self.items)
            """,
        )
        assert _run(tmp_path, self._rule()).ok

    def test_suppression_silences_finding(self, tmp_path):
        _write(
            tmp_path,
            "src/mod.py",
            """
            class Widget:
                def size(self):
                    return len(self.items)  # repro: ignore[lock-discipline]
            """,
        )
        report = _run(tmp_path, self._rule())
        assert report.ok
        assert report.suppressed_count == 1

    def test_global_guard(self, tmp_path):
        _write(
            tmp_path,
            "src/glob.py",
            """
            _state = {}

            def bad():
                return _state.get("x")

            def good():
                with _glock:
                    return _state.get("x")
            """,
        )
        report = _run(tmp_path, self._rule())
        assert len(report.new_findings) == 1
        assert "bad()" in report.new_findings[0].message


class TestSoundnessBoundary:
    def _rule(self, kernels=()):
        return SoundnessBoundaryRule(
            scopes=("abstract/",),
            import_exempt=("abstract/driver.py",),
            compare_exempt=("abstract/interval.py",),
            kernels=kernels,
        )

    def test_concrete_import_fires(self, tmp_path):
        _write(
            tmp_path,
            "src/abstract/trans.py",
            """
            from repro.core.learner import DecisionTreeLearner
            """,
        )
        report = _run(tmp_path, self._rule())
        assert [f.rule for f in report.new_findings] == ["soundness-boundary"]

    def test_exempt_driver_may_import_concrete(self, tmp_path):
        _write(
            tmp_path,
            "src/abstract/driver.py",
            """
            from repro.core.learner import DecisionTreeLearner
            """,
        )
        assert _run(tmp_path, self._rule()).ok

    def test_raw_bound_comparison_fires(self, tmp_path):
        _write(
            tmp_path,
            "src/abstract/trans.py",
            """
            def definitely_zero(interval):
                return interval.hi <= 0.0
            """,
        )
        report = _run(tmp_path, self._rule())
        assert len(report.new_findings) == 1
        assert ".hi" in report.new_findings[0].message

    def test_helper_call_is_clean(self, tmp_path):
        _write(
            tmp_path,
            "src/abstract/trans.py",
            """
            def definitely_zero(interval):
                return interval.upper_at_most(0.0)
            """,
        )
        assert _run(tmp_path, self._rule()).ok

    def test_suppressed_bound_comparison(self, tmp_path):
        _write(
            tmp_path,
            "src/abstract/trans.py",
            """
            def definitely_zero(interval):
                return interval.hi <= 0.0  # repro: ignore[soundness-boundary]
            """,
        )
        report = _run(tmp_path, self._rule())
        assert report.ok
        assert report.suppressed_count == 1

    def test_kernel_without_oracle_fires(self, tmp_path):
        _write(
            tmp_path,
            "src/abstract/kern.py",
            """
            def _kernel(x):
                return x
            """,
        )
        _write(tmp_path, "tests/test_kern.py", "from abstract.kern import _kernel\n")
        spec = KernelSpec("abstract/kern.py", "_kernel", "_kernel_reference", "tests/test_kern.py")
        report = _run(tmp_path, self._rule(kernels=[spec]))
        messages = " | ".join(f.message for f in report.new_findings)
        assert "_kernel_reference" in messages

    def test_registered_kernel_with_test_is_clean(self, tmp_path):
        _write(
            tmp_path,
            "src/abstract/kern.py",
            """
            def _kernel(x):
                return x

            def _kernel_reference(x):
                return x
            """,
        )
        _write(
            tmp_path,
            "tests/test_kern.py",
            """
            from abstract.kern import _kernel, _kernel_reference

            def test_parity():
                assert _kernel(1) == _kernel_reference(1)
            """,
        )
        spec = KernelSpec("abstract/kern.py", "_kernel", "_kernel_reference", "tests/test_kern.py")
        assert _run(tmp_path, self._rule(kernels=[spec])).ok

    def test_missing_test_module_fires(self, tmp_path):
        _write(
            tmp_path,
            "src/abstract/kern.py",
            """
            def _kernel(x):
                return x

            def _kernel_reference(x):
                return x
            """,
        )
        spec = KernelSpec("abstract/kern.py", "_kernel", "_kernel_reference", "tests/gone.py")
        report = _run(tmp_path, self._rule(kernels=[spec]))
        assert any("missing" in f.message for f in report.new_findings)


class TestMetricHygiene:
    def test_dynamic_metric_name_fires(self, tmp_path):
        _write(
            tmp_path,
            "src/mod.py",
            """
            from repro.telemetry import counter

            def make(i):
                return counter(f"requests_{i}")
            """,
        )
        report = _run(tmp_path, MetricHygieneRule())
        assert [f.rule for f in report.new_findings] == ["metric-hygiene"]
        assert "non-literal" in report.new_findings[0].message

    def test_camel_case_name_fires(self, tmp_path):
        _write(
            tmp_path,
            "src/mod.py",
            """
            from repro.telemetry import counter

            REQS = counter("RequestsTotal")
            """,
        )
        report = _run(tmp_path, MetricHygieneRule())
        assert any("snake_case" in f.message for f in report.new_findings)

    def test_dynamic_labelnames_fire(self, tmp_path):
        _write(
            tmp_path,
            "src/mod.py",
            """
            from repro.telemetry import counter

            KEYS = ("route",)
            REQS = counter("requests_total", labelnames=KEYS)
            """,
        )
        report = _run(tmp_path, MetricHygieneRule())
        assert any("labelnames" in f.message for f in report.new_findings)

    def test_fstring_label_value_fires(self, tmp_path):
        _write(
            tmp_path,
            "src/mod.py",
            """
            def record(REQS, path):
                REQS.inc(route=f"/{path}")
            """,
        )
        report = _run(tmp_path, MetricHygieneRule())
        assert any("f-string" in f.message for f in report.new_findings)

    def test_clean_definition_and_record_site(self, tmp_path):
        _write(
            tmp_path,
            "src/mod.py",
            """
            from repro.telemetry import counter

            REQS = counter("requests_total", labelnames=("route",))

            def record(route):
                REQS.inc(route=route)
                REQS.inc(amount=len(route))
            """,
        )
        assert _run(tmp_path, MetricHygieneRule()).ok

    def test_suppressed_dynamic_label(self, tmp_path):
        _write(
            tmp_path,
            "src/mod.py",
            """
            def record(REQS, path):
                REQS.inc(route=f"/{path}")  # repro: ignore[metric-hygiene]
            """,
        )
        report = _run(tmp_path, MetricHygieneRule())
        assert report.ok
        assert report.suppressed_count == 1

    def test_exempt_module_is_skipped(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/telemetry/metrics.py",
            """
            def merge(self, name):
                return self.registry.counter(name)
            """,
        )
        assert _run(tmp_path, MetricHygieneRule()).ok


SCHEMA_FILES = {
    "src/res.py": """
        class R:
            def to_dict(self):
                return {"a": self.a, "b": self.b}

            @classmethod
            def from_dict(cls, payload):
                return cls(payload["a"], payload.get("b", 0))
        """,
    "src/rep.py": """
        CSV_FIELDS = ("index", "a", "b")
        """,
    "src/proto.py": """
        ENGINE_CONFIG_FIELDS = ("depth", "timeout_seconds")

        def model_to_wire(model):
            return {"family": "removal", "n": model.n}

        def model_from_wire(payload):
            family = payload.get("family")
            if family == "removal":
                return payload["n"]
            raise ValueError(family)
        """,
    "src/fp.py": """
        def engine_cache_key(engine):
            return f"d={engine.depth}"
        """,
}


class TestSchemaDrift:
    def _rule(self):
        return SchemaDriftRule(
            SchemaSpec(
                result_module="res.py",
                report_module="rep.py",
                protocol_module="proto.py",
                fingerprint_module="fp.py",
                non_cached_fields=("timeout_seconds",),
            )
        )

    def _write_all(self, tmp_path, overrides=None):
        files = dict(SCHEMA_FILES)
        files.update(overrides or {})
        for relpath, text in files.items():
            _write(tmp_path, relpath, text)

    def test_consistent_schemas_are_clean(self, tmp_path):
        self._write_all(tmp_path)
        assert _run(tmp_path, self._rule()).ok

    def test_missing_csv_field_fires(self, tmp_path):
        self._write_all(tmp_path, {"src/rep.py": 'CSV_FIELDS = ("index", "a")\n'})
        report = _run(tmp_path, self._rule())
        assert any("'b'" in f.message and "CSV" in f.message for f in report.new_findings)

    def test_write_only_field_fires(self, tmp_path):
        self._write_all(
            tmp_path,
            {
                "src/res.py": """
                class R:
                    def to_dict(self):
                        return {"a": self.a, "b": self.b}

                    @classmethod
                    def from_dict(cls, payload):
                        return cls(payload["a"], 0)
                """
            },
        )
        report = _run(tmp_path, self._rule())
        assert any("from_dict never reads 'b'" in f.message for f in report.new_findings)

    def test_cache_key_missing_field_fires(self, tmp_path):
        self._write_all(
            tmp_path,
            {
                "src/proto.py": SCHEMA_FILES["src/proto.py"].replace(
                    '("depth", "timeout_seconds")', '("depth", "impurity", "timeout_seconds")'
                )
            },
        )
        report = _run(tmp_path, self._rule())
        assert any("cache poisoning" in f.message for f in report.new_findings)

    def test_family_asymmetry_fires(self, tmp_path):
        self._write_all(
            tmp_path,
            {
                "src/proto.py": SCHEMA_FILES["src/proto.py"].replace(
                    'if family == "removal":',
                    'if family == "label-flip":\n                return None\n            if family == "removal":',
                )
            },
        )
        report = _run(tmp_path, self._rule())
        assert any("label-flip" in f.message for f in report.new_findings)

    def test_missing_anchor_is_a_finding(self, tmp_path):
        self._write_all(tmp_path, {"src/rep.py": "OTHER = 1\n"})
        report = _run(tmp_path, self._rule())
        assert any("anchor not found" in f.message for f in report.new_findings)

    def test_suppressed_drift(self, tmp_path):
        self._write_all(
            tmp_path,
            {
                "src/rep.py": (
                    "# repro: ignore[schema-drift]\n"
                    'CSV_FIELDS = ("index", "a")\n'
                )
            },
        )
        report = _run(tmp_path, self._rule())
        assert report.ok
        assert report.suppressed_count == 1


class TestExceptionTaxonomy:
    def test_silent_swallow_fires(self, tmp_path):
        _write(
            tmp_path,
            "src/mod.py",
            """
            def f():
                try:
                    work()
                except Exception:
                    pass
            """,
        )
        report = _run(tmp_path, ExceptionTaxonomyRule(boundaries=()))
        assert [f.rule for f in report.new_findings] == ["exception-taxonomy"]

    def test_bare_except_fires(self, tmp_path):
        _write(
            tmp_path,
            "src/mod.py",
            """
            def f():
                try:
                    work()
                except:
                    x = 1
            """,
        )
        report = _run(tmp_path, ExceptionTaxonomyRule(boundaries=()))
        assert "bare except" in report.new_findings[0].message

    def test_reraise_is_clean(self, tmp_path):
        _write(
            tmp_path,
            "src/mod.py",
            """
            def f():
                try:
                    work()
                except Exception:
                    cleanup()
                    raise
            """,
        )
        assert _run(tmp_path, ExceptionTaxonomyRule(boundaries=())).ok

    def test_classify_error_is_clean(self, tmp_path):
        _write(
            tmp_path,
            "src/mod.py",
            """
            from repro.telemetry import events

            def f():
                try:
                    work()
                except Exception as error:
                    events.emit("failed", error_kind=events.classify_error(error))
            """,
        )
        assert _run(tmp_path, ExceptionTaxonomyRule(boundaries=())).ok

    def test_set_exception_is_clean(self, tmp_path):
        _write(
            tmp_path,
            "src/mod.py",
            """
            def f(future):
                try:
                    work()
                except BaseException as error:
                    future.set_exception(error)
            """,
        )
        assert _run(tmp_path, ExceptionTaxonomyRule(boundaries=())).ok

    def test_declared_boundary_is_clean(self, tmp_path):
        _write(
            tmp_path,
            "src/srv.py",
            """
            def handle(conn):
                try:
                    dispatch(conn)
                except Exception as error:
                    conn.send_error(error)
            """,
        )
        rule = ExceptionTaxonomyRule(
            boundaries=[Boundary("srv.py", "handle", "protocol boundary")]
        )
        assert _run(tmp_path, rule).ok

    def test_narrow_handler_is_ignored(self, tmp_path):
        _write(
            tmp_path,
            "src/mod.py",
            """
            def f():
                try:
                    work()
                except OSError:
                    pass
            """,
        )
        assert _run(tmp_path, ExceptionTaxonomyRule(boundaries=())).ok

    def test_suppressed_swallow(self, tmp_path):
        _write(
            tmp_path,
            "src/mod.py",
            """
            def f():
                try:
                    work()
                # best-effort cleanup  # repro: ignore[exception-taxonomy]
                except Exception:
                    pass
            """,
        )
        report = _run(tmp_path, ExceptionTaxonomyRule(boundaries=()))
        assert report.ok
        assert report.suppressed_count == 1
