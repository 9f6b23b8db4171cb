"""One path per model: no Fraction/float twin loops come back.

The gap code reads a map of the line as x -> alpha x + beta in one place,
``fractal_geometry._affine``, which gives Fractions or floats; every image
of an interval goes through ``_images``.  A second reader of the exact
mirror or of the orientation sign is how a float twin of an exact loop
starts, so outside the ``Similarity`` class only ``_affine`` may read
``exact_affine()`` or ``orthogonal[0, 0]``.  Likewise the models reach
``EigenvalueSequence`` through their values, never through a function that
looks entries up in an array, and every sequence holds one thing: its
validated array, evaluated once when the sequence is made.  The pair model
walks its word tree once: it reads each level of the system once, level 1
at most twice since the default seed reads it too, so no loop rebuilds the
tree from the root.  A number with its interval is a ``sequences.Estimate``,
never a loose set of float fields.  A ``LimitIfs`` is its level blocks and
whether they repeat, with no mode beside them: ``LimitIfs.__init__`` alone
sets ``period`` (the ratios of each level of one period) and ``max_depth``
(where the levels run out), and the rest of the package asks those two,
gap lists and models through the system they hold, never through a copy.
The stationary system is the period of one level, with no name of its
own.  Every
error class in ``errors`` is raised somewhere in the package, so each code
is one a run can report.  The run's budget is stated once: in ``reporting``
only the entry points ``parse_config`` and ``run`` and the validator's
``_Ctx`` take it, and each ``Experiment`` carries the budget it was
validated against to its run and report.
"""

import ast
import dataclasses
import importlib
import inspect
import pathlib
import typing
from collections import Counter

import numpy as np
import pytest

from fractrace import errors
from fractrace.fractal_geometry import LimitIfs, gaps_from_interval_ifs
from fractrace.sequences import EigenvalueSequence, Estimate, LogLinearProfile
from fractrace.spectral_triples import gap_triple, pair_triple
from systems import make_periodic, make_periodic_gapped, make_planar, make_uneven

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "fractrace"


def definitions(path, skip_class=None):
    """(name, node) of each module-level function and of each method of the
    module's classes other than ``skip_class``."""
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef) and node.name != skip_class:
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def reads_the_affine_form(node):
    """True if the subtree calls ``.exact_affine()`` or reads
    ``.orthogonal[0, 0]``."""
    for sub in ast.walk(node):
        if (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute)
                and sub.func.attr == "exact_affine"):
            return True
        if (isinstance(sub, ast.Subscript)
                and isinstance(sub.value, ast.Attribute)
                and sub.value.attr == "orthogonal"
                and ast.unparse(sub.slice) in ("0, 0", "(0, 0)")):
            return True
    return False


def test_only_affine_reads_a_map_of_the_line():
    readers = [name for name, node in definitions(
        PACKAGE / "fractal_geometry.py", skip_class="Similarity")
        if reads_the_affine_form(node)]
    assert readers == ["_affine"]


MODES = {"STATIONARY", "PERIODIC", "EXPLICIT"}
RUN_FIELDS = {"period", "max_depth"}


def scopes(path):
    """(name, node) of each module-level statement, and of each statement
    in a class body as ``Class.name``: the name it defines, or None for a
    statement that defines no one name."""
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                name = getattr(item, "name", None)
                yield f"{node.name}.{name}" if name else node.name, item
        elif isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif (isinstance(node, ast.Assign) and len(node.targets) == 1
              and isinstance(node.targets[0], ast.Name)):
            yield node.targets[0].id, node
        else:
            yield None, node


def test_only_limit_ifs_init_sets_how_its_levels_run():
    setters, names = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        for scope, node in scopes(path):
            for sub in ast.walk(node):
                if (isinstance(sub, ast.Attribute) and sub.attr in RUN_FIELDS
                        and not isinstance(sub.ctx, ast.Load)):
                    setters.add(f"{path.stem}.{scope}")
                if (isinstance(sub, ast.Name) and sub.id in MODES
                        or isinstance(sub, ast.Attribute)
                        and sub.attr in MODES | {"generation"}
                        or isinstance(sub, ast.alias) and sub.name in MODES):
                    names.add(f"{path.stem}.{scope}")
    assert setters == {"fractal_geometry.LimitIfs.__init__"}
    # no generation mode is a constant or an attribute: a config names its
    # mode as a string, which picks the blocks and whether they repeat
    assert names == set()


def _package_dataclasses() -> list:
    return [cls for path in sorted(PACKAGE.glob("*.py"))
            for cls in vars(importlib.import_module(
                f"fractrace.{path.stem}")).values()
            if dataclasses.is_dataclass(cls)
            and cls.__module__ == f"fractrace.{path.stem}"]


def _holds_system(hint) -> bool:
    return hint is LimitIfs or LimitIfs in typing.get_args(hint)


def _reaches_system(hint, seen=()) -> bool:
    """Whether a field of type ``hint`` holds a dataclass with a field that
    holds or reaches a ``LimitIfs``."""
    return any(dataclasses.is_dataclass(t) and t not in seen
               and any(_holds_system(h) or _reaches_system(h, seen + (t,))
                       for h in typing.get_type_hints(t).values())
               for t in (hint, *typing.get_args(hint)))


def test_the_period_is_held_once():
    """No dataclass holds a period of its own, so a gap list or a model
    reaches it through the system it was built over; the name of the
    one-level special case it replaced is gone.  Nor does a dataclass hold
    a system that another of its fields already reaches: a gap model
    reaches its system through its gap list only, so the two cannot
    differ."""
    gaps = gaps_from_interval_ifs(make_periodic_gapped(), 6)
    assert gap_triple(gaps).period is gaps.ifs.period
    classes = _package_dataclasses()
    copies = [cls.__qualname__ for cls in classes
              if "period" in {f.name for f in dataclasses.fields(cls)}]
    assert copies == []
    twice = []
    for cls in classes:
        hints = [typing.get_type_hints(cls)[f.name]
                 for f in dataclasses.fields(cls)]
        held = [h for h in hints if _holds_system(h)]
        if held and len(held) + sum(map(_reaches_system, hints)) > 1:
            twice.append(cls.__qualname__)
    assert twice == []
    assert [path.name for path in PACKAGE.glob("*.py")
            if "stationary_ratios" in path.read_text()] == []


def test_models_reach_sequences_through_their_values():
    calls = [name for name, node in definitions(PACKAGE / "spectral_triples.py")
             for sub in ast.walk(node)
             if isinstance(sub, ast.Attribute) and sub.attr == "from_function"]
    assert calls == []


@pytest.mark.parametrize("build, max_depth", [
    (make_uneven, None), (make_planar, None), (make_periodic, None),
    (make_uneven, 6)], ids=["uneven", "planar", "periodic", "ceiling"])
def test_pair_enumeration_reads_each_level_once(monkeypatch, build, max_depth):
    ifs, reads = build(), []
    level = LimitIfs.level
    monkeypatch.setattr(LimitIfs, "level",
                        lambda self, n: reads.append(n) or level(self, n))
    model = pair_triple(ifs, cap=30_000, max_depth=max_depth)
    counts = Counter(reads)
    deepest = max(counts)
    assert deepest >= model.depths.max() > 1
    assert sorted(counts) == list(range(1, deepest + 1))
    assert counts[1] <= 2
    assert all(counts[n] == 1 for n in range(2, deepest + 1))


PROFILE = LogLinearProfile([0.0, 2.0, 30.0], [0.0, 2.6], [1.3, 1.7])


@pytest.mark.parametrize("make", [
    lambda: EigenvalueSequence.from_values(np.arange(1, 3001) ** -1.2),
    lambda: EigenvalueSequence.from_function(lambda n: n ** -1.5, cap=3000),
    lambda: EigenvalueSequence.from_profile(PROFILE, cap=3000),
], ids=["from_values", "from_function", "from_profile"])
def test_a_sequence_holds_its_array_and_no_function(make):
    base = make()
    for seq in (base, base.power(0.7)):
        assert [k for k, v in vars(seq).items() if callable(v)] == []
        assert len(seq.values) == seq.cap


def public_dataclasses():
    """Every public dataclass of the package other than ``Estimate``."""
    for path in sorted(PACKAGE.glob("[!_]*.py")):
        mod = importlib.import_module(f"fractrace.{path.stem}")
        for name, cls in sorted(vars(mod).items()):
            if (inspect.isclass(cls) and not name.startswith("_")
                    and cls.__module__ == mod.__name__
                    and dataclasses.is_dataclass(cls) and cls is not Estimate):
                yield cls


def test_an_interval_is_an_estimate():
    loose = [f"{cls.__name__}.{field}"
             for cls in public_dataclasses()
             for field, ann in vars(cls).get("__annotations__", {}).items()
             if field == "band" or ann == "float" and (
                 field in ("lower", "upper") or field.endswith(("_lo", "_hi")))]
    assert loose == []
    triples = [cls.__name__ for cls in public_dataclasses()
               if {"value", "lo", "hi"} <= {f.name for f in dataclasses.fields(cls)}
               and not issubclass(cls, Estimate)]
    assert triples == []


def raised_names(path):
    """Names of the classes that ``raise`` statements in a module raise."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            yield exc.attr if isinstance(exc, ast.Attribute) else \
                getattr(exc, "id", None)


def test_every_error_class_is_raised():
    classes = {name for name, cls in vars(errors).items()
               if inspect.isclass(cls) and issubclass(cls, errors.FractraceError)
               and cls is not errors.FractraceError}
    raised = {name for path in PACKAGE.glob("*.py")
              for name in raised_names(path)}
    assert sorted(classes - raised) == []


def functions(node, scope=""):
    """(qualified name, node) of every function, method and lambda under
    ``node``, nested ones included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            name = scope + child.name
        elif isinstance(child, ast.Lambda):
            name = scope + "<lambda>"
        else:
            yield from functions(child, scope)
            continue
        if not isinstance(child, ast.ClassDef):
            yield name, child
        yield from functions(child, name + ".")


def parameter_names(node):
    a = node.args
    return {p.arg for p in [*a.posonlyargs, *a.args, *a.kwonlyargs,
                            a.vararg, a.kwarg] if p is not None}


def test_only_the_entry_points_and_the_validator_take_the_budget():
    path = PACKAGE / "reporting.py"
    takers = [name for name, node in functions(ast.parse(path.read_text()))
              if "budget" in parameter_names(node)]
    assert sorted(takers) == ["_Ctx.__init__", "parse_config", "run"]
