import ast
import importlib
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import syndetic

SRC = Path(syndetic.__file__).parent
ROOT = Path(__file__).resolve().parents[1]


def test_no_assert_statements_in_the_package():
    # python -O strips asserts; self-checks must raise real exceptions
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_only_textio_reads_line_documents():
    # the writer-form decision and the integer grammar sit behind
    # textio.Lines; every other module reads documents through it
    names = {"significant_lines", "writer_rows", "canonical_int"}
    readers = {
        path.name
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if {getattr(node, attr, None) for attr in ("id", "attr", "name")} & names
    }
    assert readers == {"textio.py"}


def test_every_import_is_read():
    # an import nothing reads is dead code
    unread = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unread += [
            f"{path.name}:{name}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
            if (name := alias.asname or alias.name.split(".")[0]) not in read
        ]
    assert unread == []


def test_one_closed_form_clip():
    # windows.feasible_block is the one clip; no row-by-row clip comes
    # back, and strided views are plain np.ndarray calls
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name == "feasible_rows":
                found.append(f"{path.name}:{node.lineno} defines feasible_rows")
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            if any(name.startswith("numpy.lib.stride_tricks") for name in names):
                found.append(f"{path.name}:{node.lineno} imports stride_tricks")
    assert found == []


def test_pair_box_cap_is_stated_once():
    # windows.PAIR_BOX_CELLS is the one statement of the 200,000-cell cap
    # that construct sizes its boxes by and the verifier refuses past
    found = [
        f"{path.name}: {line}"
        for path in sorted(SRC.glob("*.py"))
        for line in path.read_text().splitlines()
        for _ in re.findall(r"\b200[_,]?000\b", line)
    ]
    assert found == ["windows.py: PAIR_BOX_CELLS = 200_000"]


def test_one_probe_and_one_set_body():
    # windows.progressions_in is the one box probe: no probe on a given
    # block or with a shift comes back, and the 1D and 2D sets share the
    # members they have in common
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name in ("probe_block", "_probe"):
                found.append(f"{path.name}:{node.lineno} defines {node.name}")
    assert found == []
    tree = ast.parse((SRC / "windows.py").read_text())
    shared = ["mask", "count", "is_empty", "__eq__", "__hash__"]
    defined = [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in shared
    ]
    assert sorted(defined) == sorted(shared)


def test_the_package_adopts_the_sets_it_builds():
    # a set's public constructor copies the caller's mask; every set the
    # package builds adopts its fresh mask through _WindowSet._adopt, the
    # one body that checks, freezes and binds a mask
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in (
                "WindowSet1D", "WindowSet2D", "cls"
            ):
                found.append(f"{path.name}:{node.lineno} calls {node.func.id}")
            if isinstance(node, ast.FunctionDef) and node.name in ("_adopt", "_bind"):
                found.append(f"{path.name} defines {node.name}")
    assert found == ["windows.py defines _adopt", "windows.py defines _bind"]


def test_one_exit_for_a_failed_claim():
    # verify_fg turns the first failed claim of its stream into a verdict
    # in one place: no helper builds failing verdicts, verify_fg returns
    # only that verdict and the pass, and nothing else builds a Verdict
    tree = ast.parse((SRC / "certificate.py").read_text())
    defs = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert "_fail" not in defs
    returns = [node for node in ast.walk(defs["verify_fg"]) if isinstance(node, ast.Return)]
    assert len(returns) == 2
    built = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Verdict"
    ]
    assert len(built) == 2


def _templates(tree: ast.Module):
    """Every string literal, and every f-string with ``{}`` for each of its
    replacement fields."""
    for node in ast.walk(tree):
        if isinstance(node, ast.JoinedStr):
            yield "".join(
                v.value if isinstance(v, ast.Constant) else "{}" for v in node.values
            )
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_only_textio_formats_writer_rows():
    # run and pt lines are formatted by textio.dump_rows alone, in one
    # vectorized pass from a key and integer columns; a per-line template
    # such as f"pt {x} {y}" or "run {} {}" anywhere is a second writer
    row = re.compile(r"(run|pt)( \{[^}]*\})+\n?")
    writers = {
        path.name
        for path in SRC.glob("*.py")
        for template in _templates(ast.parse(path.read_text()))
        if row.fullmatch(template)
    }
    assert writers == set()


def test_only_windows_lays_out_2d_masks():
    # 2D masks are stored step-major, and windows.box_mask allocates them;
    # outside windows no call names a memory order, no numpy allocation of
    # a 2D shape is boolean and no mask is copied with .copy(), whose
    # default order is row-major
    allocators = {"zeros", "ones", "empty", "full"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "windows.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = getattr(node.func, "attr", None)
            keywords = {k.arg: k.value for k in node.keywords}
            shape = node.args[0] if node.args else None
            dtype = keywords.get("dtype", node.args[1] if len(node.args) > 1 else None)
            two_d = (
                isinstance(shape, ast.Tuple) and len(shape.elts) > 1
            ) or getattr(shape, "attr", None) == "shape"
            if (
                "order" in keywords
                or (func in allocators and two_d and getattr(dtype, "id", None) == "bool")
                or (func == "copy" and getattr(node.func.value, "attr", None) == "mask")
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _caller_nodes() -> list[ast.AST]:
    """Every node of the code outside the tests that uses the library: the
    package itself bar the re-exports of ``__init__``, the demos and the
    benchmark."""
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "demos").glob("*.py"))
    paths += sorted((ROOT / "perfbench").glob("*.py"))
    return [node for p in paths for node in ast.walk(ast.parse(p.read_text()))]


# the names ``from syndetic import *`` bound when ``__init__`` imported every module
# eagerly: the exports, then the submodules
EXPORTS = (
    "APIndex", "APPair", "AffineMap2D", "BudgetExhaustedError", "CertificateError",
    "CertificateParseError", "ColorTriple", "Coloring", "ConstructionError",
    "DEFAULT_BUDGET", "DigestMismatchError", "FgCertificate", "KINDS", "MonoAP",
    "PSWitness1D", "PairSet", "PartitionError", "PartitionWitness", "PhiSearchError",
    "RefusalError", "Scale", "ScalePreconditionError", "SetFormatError", "SpanResult",
    "VdwResult", "Verdict", "WindowError", "WindowSet1D", "WindowSet2D", "affine_image",
    "color_classes", "contains_interval", "dump_coloring", "dump_vdw_result",
    "dump_window1d", "fg_construct", "find_mono_ap", "find_nontrivial_ap", "gen_example",
    "is_ps_at_scale", "load_window1d", "max_run_length", "parse", "partition_extract",
    "periodic_set", "pigeonhole_extract", "progression_pairs", "ps_scale_1d",
    "ps_scale_2d", "random_sparse_set", "serialize", "set_digest", "shifted_union_1d",
    "shifted_union_2d", "striped_set", "thick_blocks_set", "vdw_number", "vdw_span",
    "verify_fg",
)
SUBMODULES = ("certificate", "generators", "pipeline", "textio", "vdw", "windows")


def test_every_public_name_has_a_caller_outside_the_tests():
    # the library carries no code that only tests call; a def or class
    # line and the strings of an ``__all__`` list are not reads
    used = {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in _caller_nodes()
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    exported = ["KINDS", *syndetic._EXPORTS]
    assert sorted(exported) == sorted(EXPORTS)
    assert [name for name in exported if name not in used] == []


def test_every_export_is_its_module_attribute():
    for name, module in syndetic._EXPORTS.items():
        assert getattr(syndetic, name) is getattr(
            importlib.import_module(f"syndetic.{module}"), name
        ), name
    assert syndetic.KINDS is importlib.import_module("syndetic.generators").KINDS
    for module in SUBMODULES:
        assert getattr(syndetic, module) is importlib.import_module(f"syndetic.{module}")
    with pytest.raises(AttributeError, match="no attribute 'nowhere'"):
        syndetic.nowhere


def test_star_import_binds_the_exports_and_submodules():
    namespace: dict = {}
    exec("from syndetic import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted([*EXPORTS, *SUBMODULES])
    assert all(value is getattr(syndetic, name) for name, value in namespace.items())


def loaded(code: str, *argv: str, cwd=None) -> list[str]:
    """numpy and the package modules a fresh interpreter holds after
    running ``code`` with ``argv`` as its arguments."""
    probe = code + (
        "\nimport sys\nprint(*sorted(m for m in sys.modules"
        " if m == 'numpy' or m.split('.')[0] == 'syndetic'))"
    )
    done = python("-c", probe, *argv, cwd=cwd)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def python(*args: str, cwd=None) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports this package."""
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )


def test_bare_import_loads_no_submodule():
    assert loaded("import syndetic") == ["syndetic"]
    assert loaded("from syndetic import vdw_number") == ["syndetic", "syndetic.vdw"]
    assert loaded("import syndetic\nsyndetic.windows.WindowSet1D") == [
        "numpy", "syndetic", "syndetic.windows"
    ]


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    from syndetic import dump_window1d, fg_construct, serialize, striped_set

    where = tmp_path_factory.mktemp("documents")
    s = striped_set((0, 200), 5, 2)
    (where / "s.set").write_text(dump_window1d(s))
    (where / "c.fgcert").write_text(serialize(fg_construct(s, 2, 2)))
    return where


# the package modules each command loads besides the package and cli, and
# whether it loads numpy
COMMAND_MODULES = {
    "vdw 2 3": ({"vdw"}, False),
    "gen ps-striped --window 0 200 --block 5 --gap 2": (
        {"vdw", "generators", "textio", "windows"}, True
    ),
    "check1d s.set 2 5": ({"vdw", "textio", "windows"}, True),
    "construct s.set 2 2": ({"vdw", "textio", "windows", "certificate", "pipeline"}, True),
    "verify c.fgcert s.set": ({"vdw", "textio", "windows", "certificate"}, True),
}


@pytest.mark.parametrize("command", COMMAND_MODULES)
def test_each_command_loads_only_what_it_runs(documents, command):
    got = loaded(
        "import sys\nfrom syndetic.cli import main\n"
        "if main(sys.argv[1:]):\n    sys.exit('command failed')",
        *command.split(), "--out", "out.txt",
        cwd=documents,
    )
    modules, numpy = COMMAND_MODULES[command]
    want = {"syndetic", "syndetic.cli", *(f"syndetic.{m}" for m in modules)}
    assert sorted(got) == sorted(want | ({"numpy"} if numpy else set()))


def test_a_patch_on_cli_takes_effect_before_first_use(documents):
    # the benchmark and the tests patch library names on cli; in a fresh
    # process the first patch comes before the command binds the name
    code = (
        "import sys\nimport syndetic.cli as cli\n"
        "def loader(text):\n    raise ValueError('patched loader')\n"
        "cli.load_window1d = loader\n"
        "if cli.main(sys.argv[1:]) != 64:\n    sys.exit('patch not taken')\n"
    )
    assert loaded(code, "check1d", "s.set", "2", "5", cwd=documents) == [
        "syndetic", "syndetic.cli", "syndetic.vdw"
    ]


def test_vdw_runs_under_warnings_as_errors():
    done = python("-W", "error", "-m", "syndetic.cli", "vdw", "2", "3")
    assert (done.returncode, done.stderr) == (0, "")
    assert "n 9" in done.stdout.splitlines()


@pytest.mark.parametrize("bump,code", [(0, 0), (1, 1)])
def test_verify_is_the_same_under_python_O(tmp_path, bump, code):
    # -O strips asserts and sets __debug__ false; the verdict and its exit
    # code stay, on the golden pair and with pair_count raised
    data = ROOT / "tests" / "data"
    text = (data / "striped_5_2_w120.fgcert").read_text()
    (count,) = [line for line in text.splitlines() if line.startswith("pair_count ")]
    bumped = f"pair_count {int(count.split()[1]) + bump}"
    (tmp_path / "c.fgcert").write_text(text.replace(f"\n{count}\n", f"\n{bumped}\n"))
    (tmp_path / "s.set").write_text((data / "striped_5_2_w120.set").read_text())
    runs = [
        python(*flags, "-m", "syndetic.cli", "verify", "c.fgcert", "s.set", cwd=tmp_path)
        for flags in ([], ["-O"])
    ]
    assert runs[0].returncode == code and runs[0].stdout
    assert [(run.returncode, run.stdout) for run in runs[1:]] == [(code, runs[0].stdout)]


def _options(tree: ast.Module):
    """(function, parameter, position) for each parameter with a default;
    position counts the arguments a call passes, so a method's first
    parameter is not counted, and is None for a keyword-only parameter."""
    methods = {
        fn
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef)
        and not any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
    }
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        a = fn.args
        params = (a.posonlyargs + a.args)[1 if fn in methods else 0 :]
        for i in range(len(params) - len(a.defaults), len(params)):
            yield fn.name, params[i].arg, i
        for kw, default in zip(a.kwonlyargs, a.kw_defaults):
            if default is not None:
                yield fn.name, kw.arg, None


def test_every_option_is_set_by_a_caller_outside_the_tests():
    # an option that only tests set has one value in use, so it is a
    # constant.  pigeonhole_extract's workers= is passed by the benchmark's
    # stage replay through its stage() helper, a call this walk cannot see
    # through, and the benchmark may not change with the library.
    allowed = {"pigeonhole_extract.workers"}
    most: dict[str, float] = {}
    keywords = set()
    for call in _caller_nodes():
        if isinstance(call, ast.Call):
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            starred = any(isinstance(arg, ast.Starred) for arg in call.args)
            most[name] = max(most.get(name, 0), math.inf if starred else len(call.args))
            # a ** argument has no name and may pass any keyword
            keywords.update((name, kw.arg) for kw in call.keywords)
    unset = [
        f"{fn}.{param}"
        for path in sorted(SRC.glob("*.py"))
        for fn, param, pos in _options(ast.parse(path.read_text()))
        if not (pos is not None and most.get(fn, 0) > pos)
        and not {(fn, param), (fn, None)} & keywords
    ]
    assert sorted(set(unset) - allowed) == []


def test_vdw_keeps_no_state_but_its_exhaustive_cache():
    # the search is pure Python and keeps its masks per call: vdw
    # imports only the standard library, and besides constants and
    # ``__all__`` it binds one module-level value, the memo of exhaustive
    # results
    tree = ast.parse((SRC / "vdw.py").read_text())
    imported = [
        (
            getattr(node, "level", 0),
            (getattr(node, "module", None) or alias.name).split(".")[0],
        )
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    assert all(
        level == 0 and name in sys.stdlib_module_names for level, name in imported
    ), imported
    state = {
        target.id
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        and not isinstance(node.value, ast.Constant)
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
    }
    assert state == {"__all__", "_EXHAUSTIVE_CACHE"}
