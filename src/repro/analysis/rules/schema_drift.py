"""schema-drift: serialized schemas must agree across module boundaries.

Four cross-file invariants, each checked by extracting literals from both
sides and diffing:

1. ``CSV_FIELDS`` (api/report.py) ⊇ ``VerificationResult.to_dict()`` keys
   (verify/result.py): a result field missing from the CSV column order is
   silently dropped from every export.
2. ``VerificationResult.from_dict()`` must read every key ``to_dict()``
   writes — a write-only field vanishes on the first cache or socket
   round-trip.
3. ``ENGINE_CONFIG_FIELDS`` (service/protocol.py) minus the declared
   non-cached fields must all be read by ``engine_cache_key``
   (runtime/fingerprint.py), and vice versa: a verdict-affecting engine
   knob missing from the cache key is a cache-poisoning bug (two configs
   sharing one verdict), while a key component that is not a wire field
   fragments the cache for no reason.
4. The threat-model families ``model_to_wire`` emits must equal the
   families ``model_from_wire`` decodes — an asymmetric family is a
   one-way trip over the socket.

If any anchor (function, tuple literal) cannot be located, that is itself
a finding: the invariant silently going unchecked is the failure mode this
rule exists to prevent.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator, Optional, Set, Tuple

from repro.analysis.core import Finding, Project, SourceModule, register

RULE_NAME = "schema-drift"


@dataclass(frozen=True)
class SchemaSpec:
    """Paths + declared exceptions for the four schema checks."""

    result_module: str = "repro/verify/result.py"
    report_module: str = "repro/api/report.py"
    protocol_module: str = "repro/service/protocol.py"
    fingerprint_module: str = "repro/runtime/fingerprint.py"
    csv_fields_name: str = "CSV_FIELDS"
    engine_fields_name: str = "ENGINE_CONFIG_FIELDS"
    # Wire fields deliberately absent from the cache key (timeout outcomes
    # are never cached).
    non_cached_fields: Tuple[str, ...] = ("timeout_seconds",)


# ------------------------------------------------------------- AST extractors
def _find_function(module: SourceModule, name: str) -> Optional[ast.FunctionDef]:
    for node in ast.walk(module.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == name:
            return node
    return None


def _find_tuple_literal(module: SourceModule, name: str) -> Optional[Tuple[int, Set[str]]]:
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Assign):
            continue
        if not any(isinstance(t, ast.Name) and t.id == name for t in node.targets):
            continue
        if isinstance(node.value, (ast.Tuple, ast.List)):
            values = {
                e.value
                for e in node.value.elts
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            }
            return node.lineno, values
    return None


def _dict_return_keys(func: ast.FunctionDef) -> Optional[Set[str]]:
    for node in ast.walk(func):
        if isinstance(node, ast.Return) and isinstance(node.value, ast.Dict):
            return {
                k.value
                for k in node.value.keys
                if isinstance(k, ast.Constant) and isinstance(k.value, str)
            }
    return None


def _mapping_reads(func: ast.FunctionDef, param: str) -> Set[str]:
    reads: Set[str] = set()
    for node in ast.walk(func):
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id == param
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)
        ):
            reads.add(node.slice.value)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == param
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            reads.add(node.args[0].value)
    return reads


def _param_attr_reads(func: ast.FunctionDef) -> Set[str]:
    """Attributes read off the function's first parameter (incl. getattr)."""

    if not func.args.args:
        return set()
    param = func.args.args[0].arg
    attrs: Set[str] = set()
    for node in ast.walk(func):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == param
        ):
            attrs.add(node.attr)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and len(node.args) >= 2
            and isinstance(node.args[0], ast.Name)
            and node.args[0].id == param
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        ):
            attrs.add(node.args[1].value)
    return attrs


def _emitted_families(func: ast.FunctionDef) -> Set[str]:
    families: Set[str] = set()
    for node in ast.walk(func):
        if not isinstance(node, ast.Dict):
            continue
        for key, value in zip(node.keys, node.values):
            if (
                isinstance(key, ast.Constant)
                and key.value == "family"
                and isinstance(value, ast.Constant)
                and isinstance(value.value, str)
            ):
                families.add(value.value)
    return families


def _decoded_families(func: ast.FunctionDef) -> Set[str]:
    families: Set[str] = set()
    for node in ast.walk(func):
        if not isinstance(node, ast.Compare):
            continue
        if not all(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            continue
        operands = [node.left, *node.comparators]
        if not any(
            isinstance(o, ast.Name) and o.id == "family" for o in operands
        ):
            continue
        for operand in operands:
            if isinstance(operand, ast.Constant) and isinstance(operand.value, str):
                families.add(operand.value)
    return families


@register
class SchemaDriftRule:
    name = RULE_NAME
    description = (
        "CSV columns, wire round-trips, cache keys, and threat-model families "
        "stay in sync across modules"
    )

    def __init__(self, spec: SchemaSpec = SchemaSpec()) -> None:
        self.spec = spec

    # ------------------------------------------------------------------ check
    def check(self, project: Project) -> Iterator[Finding]:
        yield from self._check_csv_and_roundtrip(project)
        yield from self._check_cache_key(project)
        yield from self._check_model_families(project)

    def _anchor_missing(self, path: str, what: str) -> Finding:
        return Finding(
            rule=self.name,
            path=path,
            line=1,
            message=f"schema-drift anchor not found: {what}",
            hint=(
                "the checked definition moved or was renamed; update SchemaSpec "
                "in repro/analysis/rules/schema_drift.py so the invariant stays "
                "checked"
            ),
        )

    # -- checks 1 + 2 -----------------------------------------------------
    def _check_csv_and_roundtrip(self, project: Project) -> Iterator[Finding]:
        spec = self.spec
        result_mod = project.find_module(spec.result_module)
        report_mod = project.find_module(spec.report_module)
        if result_mod is None:
            yield self._anchor_missing(spec.result_module, "VerificationResult module")
            return
        to_dict = _find_function(result_mod, "to_dict")
        to_dict_keys = _dict_return_keys(to_dict) if to_dict else None
        if not to_dict_keys:
            yield self._anchor_missing(
                result_mod.path, "VerificationResult.to_dict dict-literal return"
            )
            return

        if report_mod is None:
            yield self._anchor_missing(spec.report_module, "report module")
        else:
            csv_fields = _find_tuple_literal(report_mod, spec.csv_fields_name)
            if csv_fields is None:
                yield self._anchor_missing(
                    report_mod.path, f"{spec.csv_fields_name} tuple literal"
                )
            else:
                line, fields = csv_fields
                for missing in sorted(to_dict_keys - fields):
                    yield Finding(
                        rule=self.name,
                        path=report_mod.path,
                        line=line,
                        message=(
                            f"result field {missing!r} is missing from "
                            f"{spec.csv_fields_name} — dropped from every CSV export"
                        ),
                        hint=f"add {missing!r} to {spec.csv_fields_name} and bump SCHEMA_VERSION",
                    )

        from_dict = _find_function(result_mod, "from_dict")
        if from_dict is None or len(from_dict.args.args) < 2:
            yield self._anchor_missing(result_mod.path, "VerificationResult.from_dict")
            return
        payload_param = from_dict.args.args[1].arg  # (cls, payload)
        reads = _mapping_reads(from_dict, payload_param)
        for missing in sorted(to_dict_keys - reads):
            yield Finding(
                rule=self.name,
                path=result_mod.path,
                line=from_dict.lineno,
                message=(
                    f"from_dict never reads {missing!r} written by to_dict — "
                    "the field vanishes on the first round-trip"
                ),
                hint=f"decode {missing!r} in from_dict (with a default for old payloads)",
            )

    # -- check 3 ----------------------------------------------------------
    def _check_cache_key(self, project: Project) -> Iterator[Finding]:
        spec = self.spec
        protocol_mod = project.find_module(spec.protocol_module)
        fingerprint_mod = project.find_module(spec.fingerprint_module)
        if protocol_mod is None:
            yield self._anchor_missing(spec.protocol_module, "protocol module")
            return
        if fingerprint_mod is None:
            yield self._anchor_missing(spec.fingerprint_module, "fingerprint module")
            return
        fields_lit = _find_tuple_literal(protocol_mod, spec.engine_fields_name)
        if fields_lit is None:
            yield self._anchor_missing(
                protocol_mod.path, f"{spec.engine_fields_name} tuple literal"
            )
            return
        key_func = _find_function(fingerprint_mod, "engine_cache_key")
        if key_func is None:
            yield self._anchor_missing(fingerprint_mod.path, "engine_cache_key()")
            return
        _, fields = fields_lit
        accessed = _param_attr_reads(key_func)
        for missing in sorted(fields - set(spec.non_cached_fields) - accessed):
            yield Finding(
                rule=self.name,
                path=fingerprint_mod.path,
                line=key_func.lineno,
                message=(
                    f"engine config field {missing!r} is not part of "
                    "engine_cache_key — two engines differing only in it share "
                    "cached verdicts (cache poisoning)"
                ),
                hint=(
                    f"fold {missing!r} into engine_cache_key, or declare it in "
                    "SchemaSpec.non_cached_fields with a soundness argument"
                ),
            )
        for extra in sorted(accessed - fields):
            yield Finding(
                rule=self.name,
                path=fingerprint_mod.path,
                line=key_func.lineno,
                message=(
                    f"engine_cache_key reads {extra!r} which is not an "
                    f"{spec.engine_fields_name} wire field"
                ),
                hint=f"add {extra!r} to {spec.engine_fields_name}",
            )

    # -- check 4 ----------------------------------------------------------
    def _check_model_families(self, project: Project) -> Iterator[Finding]:
        spec = self.spec
        protocol_mod = project.find_module(spec.protocol_module)
        if protocol_mod is None:
            return  # already reported by _check_cache_key
        to_wire = _find_function(protocol_mod, "model_to_wire")
        from_wire = _find_function(protocol_mod, "model_from_wire")
        if to_wire is None or from_wire is None:
            yield self._anchor_missing(
                protocol_mod.path, "model_to_wire/model_from_wire pair"
            )
            return
        emitted = _emitted_families(to_wire)
        decoded = _decoded_families(from_wire)
        if not emitted or not decoded:
            yield self._anchor_missing(
                protocol_mod.path, "threat-model family literals"
            )
            return
        for family in sorted(emitted - decoded):
            yield Finding(
                rule=self.name,
                path=protocol_mod.path,
                line=from_wire.lineno,
                message=(
                    f"family {family!r} is encoded by model_to_wire but never "
                    "decoded by model_from_wire"
                ),
                hint="add the decode branch (or retire the encoder)",
            )
        for family in sorted(decoded - emitted):
            yield Finding(
                rule=self.name,
                path=protocol_mod.path,
                line=to_wire.lineno,
                message=(
                    f"family {family!r} is decoded by model_from_wire but never "
                    "produced by model_to_wire"
                ),
                hint="add the encode branch (or retire the decoder)",
            )
