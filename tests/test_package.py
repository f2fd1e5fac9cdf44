import ast
import inspect
import sys
import types
from pathlib import Path

import shiftlab
from shiftlab import cli

SOURCES = sorted(Path(shiftlab.__file__).resolve().parent.glob("*.py"))

# Defined in src/ but reached by no subcommand, each waiting on the ROADMAP
# item that gives it a path or a fate.
UNREACHED = {
    "beta._alternation_prefix": "item 4: ehj_classify's helper",
    "beta._detect_orbit_recurrence": "item 9: continuum_navigator's helper",
    "beta._family_word": "item 4: ehj_classify's helper",
    "beta.continuum_navigator": "item 9: a construct subcommand",
    "beta.ehj_classify": "item 4: the golden-base case",
    "beta.max_zero_run_bound": "item 9: a construct subcommand",
    "beta.spec_construction_lazy": "item 9: a construct subcommand",
    "beta.spec_from_prefix": "item 9: a construct subcommand",
    "props.GibbsDiagnostics.finite_level_cells": "item 1: perfbench's tracer reads it",
    "props.almost_specified_floor": "item 6: connector bounds",
}


def test_sources_import_only_the_standard_library():
    assert SOURCES
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names, f"{path.name} imports {name}"


def test_digest_argvs_leave_the_interpreter_as_they_found_it(digest_tool):
    path, modules = list(sys.path), dict(sys.modules)
    first = digest_tool.argvs([1])
    assert digest_tool.argvs([1]) == first
    assert sys.path == path
    # Only the standard library modules the workloads import may be new.
    added = {name.split(".")[0] for name in sys.modules.keys() - modules.keys()}
    assert added <= sys.stdlib_module_names
    assert all(sys.modules[name] is module for name, module in modules.items())


def _unreached(code, prefix, reached):
    """Qualified names of the functions under code whose first line is not
    in reached; the functions nested in one of them are not listed."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType) and not const.co_name.startswith("<"):
            name = prefix + const.co_name
            if not const.co_flags & inspect.CO_NEWLOCALS:  # a class body
                yield from _unreached(const, name + ".", reached)
            elif const.co_firstlineno in reached:
                yield from _unreached(const, name + ".<locals>.", reached)
            else:
                yield name


def test_every_function_serves_a_subcommand(monkeypatch, digest_tool):
    # The digest's argvs plus one usage error, run in-process under a
    # profiler: every function src/ defines must be called, or be listed.
    monkeypatch.delenv("SHIFTLAB_MAX_CELLS", raising=False)
    argvs = [*digest_tool.argvs([1]), ["entropy"]]
    # A cached function must run here, whatever earlier tests called.
    for name, module in list(sys.modules.items()):
        if name.startswith("shiftlab."):
            for value in vars(module).values():
                getattr(value, "cache_clear", lambda: None)()

    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = [digest_tool.run(cli.main, argv)[0] for argv in argvs]
    finally:
        sys.setprofile(previous)
    assert codes[-1] == 2

    # Generated code, such as a dataclass's __init__, has no file in src/.
    reached = {path: set() for path in SOURCES}
    for code in called:
        path = Path(code.co_filename).resolve()
        if path in reached:
            reached[path].add(code.co_firstlineno)
    unreached = set()
    for path, lines in reached.items():
        module = compile(path.read_text(), str(path), "exec")
        unreached.update(_unreached(module, path.stem + ".", lines))
    assert unreached == set(UNREACHED)
