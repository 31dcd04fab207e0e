"""Every imported name in the package and the tests is used, and so is
every private module-level helper and every function parameter of the
package.

The result types store each deciding fact once and are built from it:
``TuVerdict`` its witness, ``AxiomReport`` its counterexamples,
``StandardRepr`` its B; an ``ExactMatrix`` reads its row count off its rows.
No module of the package reads the environment.

A stdlib-only AST scan.  ``__future__`` imports, the re-exports in
``__init__.py`` files and import lines marked ``# noqa`` are skipped;
a name listed in a module's ``__all__`` counts as used.
"""

import ast
import inspect
import pathlib
from dataclasses import fields

import pytest

from tumat import GF2, AxiomReport, ExactMatrix, LabeledMatrix, ShapeError, StandardRepr, TuVerdict
from tumat.sums import REASON_ZERO_ROW, standard_repr_sum_2

ROOT = pathlib.Path(__file__).resolve().parent.parent


def unused_imports(path):
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__" or "# noqa" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_no_unused_imports():
    paths = sorted((ROOT / "src" / "tumat").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    found = [hit for p in paths if p.name != "__init__.py" for hit in unused_imports(p)]
    assert not found


def loaded_names(node):
    """Names read inside ``node``, as bare names or as attributes."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)) or isinstance(n, ast.Attribute)
    }


def module_level_definitions():
    """(path, name, line, names read everywhere else in the package) per module-level definition."""
    nodes = [(p.relative_to(ROOT), node) for p in sorted((ROOT / "src" / "tumat").rglob("*.py"))
             for node in ast.parse(p.read_text(encoding="utf-8")).body]
    reads = [loaded_names(node) for _, node in nodes]
    for k, (path, node) in enumerate(nodes):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        elsewhere = set().union(*(r for i, r in enumerate(reads) if i != k))
        for name in names:
            yield path, name, node.lineno, elsewhere


def test_no_dead_private_helpers():
    # A module-level _name (function, class or constant) must be read
    # somewhere in the package outside its own definition.
    dead = [f"{path}:{line}: {name}" for path, name, line, elsewhere in module_level_definitions()
            if name.startswith("_") and not name.startswith("__") and name not in elsewhere]
    assert not dead


def test_every_public_name_has_a_caller(monkeypatch):
    # A name in a module's __all__ must be read in the package outside its
    # own definition, imported by the acceptance tests, or wrapped by the
    # benchmark tracer.  fixtures.py holds test data and is exempt.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracer

    import tumat
    import tumat.cli  # noqa: F401  (targets() reaches every submodule through the package)

    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    used = {alias.name for node in ast.walk(acceptance) if isinstance(node, ast.ImportFrom)
            for alias in node.names}
    used |= {attr for _, attr, _ in tracer.targets(tumat)}
    exported = {}
    for path in sorted((ROOT / "src" / "tumat").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if path.name != "fixtures.py" and isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exported.update((name, path.relative_to(ROOT)) for name in ast.literal_eval(node.value))
    uncalled = [f"{path}:{line}: {name}" for path, name, line, elsewhere in module_level_definitions()
                if exported.get(name) == path and name not in elsewhere and name not in used]
    assert not uncalled


def unread_parameters(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [a for a in (args.vararg, args.kwarg) if a]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [f"{path.relative_to(ROOT)}:{node.lineno}: {p.arg}"
                  for p in params if p.arg not in ("self", "cls") and p.arg not in read]
    return found


def test_no_unused_parameters():
    # Every parameter of a package function is read in its body, so a
    # leftover knob (a limit or force flag nothing honours) cannot linger.
    paths = sorted((ROOT / "src" / "tumat").rglob("*.py"))
    assert [hit for p in paths for hit in unread_parameters(p)] == []


def test_each_result_stores_its_deciding_fact_once():
    # a verdict's flag is read off its witness, an axiom report's flags off
    # its counterexamples, and a standard representation's labels off B, so
    # no two stored copies of one fact can disagree; a standard
    # representation is built from B alone, so no caller states its labels
    # twice, and a matrix's row count is the length of its rows
    assert [f.name for f in fields(TuVerdict)] == ["witness"]
    assert [f.name for f in fields(AxiomReport) if f.name.endswith("_ok")] == []
    assert StandardRepr.__slots__ == ("B",)
    assert list(inspect.signature(StandardRepr.__init__).parameters) == ["self", "b"]
    assert "n_rows" not in ExactMatrix.__slots__


def test_every_slot_is_read():
    # Every __slots__ name of a package class is read as an attribute
    # somewhere in the package, so a dropped field cannot linger.
    trees = {p.relative_to(ROOT): ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted((ROOT / "src" / "tumat").rglob("*.py"))}
    read = {n.attr for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    slots = [(f"{path}:{stmt.lineno}: {cls.name}", name)
             for path, tree in trees.items() for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
             for stmt in cls.body if isinstance(stmt, ast.Assign)
             and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets)
             for name in ast.literal_eval(stmt.value)]
    assert slots
    assert [f"{where}.{name}" for where, name in slots if name not in read] == []


# the functions that build a sum, a signing or a TU verdict
PRODUCERS = {
    "_assemble", "_stacked", "_head", "compose", "standard_repr_sum_1", "standard_repr_sum_2",
    "standard_repr_sum_3", "sign_composition", "canonical_signing_sum3", "scale_rows_cols",
    "is_totally_unimodular", "find_tu_signing",
}


def test_certificate_runs_no_producer():
    # certifies_sum checks a signed sum by its blocks; naming a producer in
    # its body, or in any private sums.py, tu.py or matroid.py helper it
    # reaches, would let it re-run the construction it is meant to check
    defs = {n.name: n for module in ("sums.py", "tu.py", "matroid.py")
            for n in ast.parse((ROOT / "src" / "tumat" / module).read_text(encoding="utf-8")).body
            if isinstance(n, ast.FunctionDef)}
    reached = ["certifies_sum"]
    for name in reached:  # breadth first: the loop reaches what it appends
        reached += sorted(n for n in loaded_names(defs[name]) & defs.keys()
                          if n.startswith("_") and n not in reached)
    assert {"_layout", "_pair", "_cut", "_ints", "_canonical_cut", "_line_scales", "_support_graph"} <= set(reached)
    assert not loaded_names(defs["_line_scales"]) & PRODUCERS
    assert [(name, sorted(loaded_names(defs[name]) & PRODUCERS)) for name in reached
            if loaded_names(defs[name]) & PRODUCERS] == []


def readers(name):
    """(module path, top-level definition) of each reader of ``name`` in the package."""
    return sorted({(str(path.relative_to(ROOT)), getattr(node, "name", node.lineno))
                   for path in sorted((ROOT / "src" / "tumat").rglob("*.py"))
                   for node in ast.parse(path.read_text(encoding="utf-8")).body
                   if name in loaded_names(node)})


def test_tree_signs_are_solved_in_one_place():
    # the star leaf decides itself: _star solves the star's signs and says
    # True, False or None, and only the leaf asks it; _fits checks only the
    # trees that _tree finds, with no default and no star branch, so the
    # network signs are solved by _colourings only there, in _star and in
    # the search's splits
    assert readers("_colourings") == [("src/tumat/tu.py", name) for name in ("_fits", "_star", "_tree")]
    assert readers("_star") == [("src/tumat/tu.py", "_block_violator")]
    assert readers("_fits") == [("src/tumat/tu.py", "_is_network_matrix")]
    defs = {n.name: n for n in ast.parse((ROOT / "src" / "tumat" / "tu.py").read_text(encoding="utf-8")).body
            if isinstance(n, ast.FunctionDef)}
    fits, star = defs["_fits"], defs["_star"]
    assert [a.arg for a in fits.args.args] == ["pos", "neg", "paths", "stars"] and fits.args.defaults == []
    assert [n.lineno for n in ast.walk(fits) if isinstance(n, ast.Compare) and "stars" in loaded_names(n)] == []
    assert ast.unparse(star.returns) == "Optional[bool]"
    answers = sorted(ast.unparse(n.value) for n in ast.walk(star) if isinstance(n, ast.Return))
    assert answers == ["None", "_colourings(edges, rules) is not None"]


def test_line_scalings_are_solved_on_one_forest():
    # "equal up to line scalings" is settled in one place, on the forest
    # that the signing search pins; the certificate, the 3-sum re-signing
    # and the binary test of matroids all ask it
    for name in ("spanning_forest", "_support_graph"):
        assert readers(name) == [("src/tumat/tu.py", "_line_scales"), ("src/tumat/tu.py", "find_tu_signing")], name
    assert readers("_line_scales") == [("src/tumat/matroid.py", "_scales_to_tu"),
                                       ("src/tumat/sums.py", "canonical_signing_sum3"),
                                       ("src/tumat/sums.py", "certifies_sum")]


def test_fraction_free_elimination_is_one_row_step():
    # rank, determinant, echelon forms and the base walk over Q all clear a
    # row by exactmat._cleared, the one place that divides a row by its gcd
    assert readers("gcd") == [("src/tumat/exactmat.py", "_cleared")]
    assert readers("_cleared") == [("src/tumat/exactmat.py", name)
                                   for name in ("_echelon", "_eliminate", "_forward")]


def test_exactmat_divides_by_no_slash():
    # every quotient of the exact kernels is a Fraction built by _coordinates
    # or the determinant, or a gcd step's exact floor division; a / would
    # bring back a Gauss-Jordan step of its own
    tree = ast.parse((ROOT / "src" / "tumat" / "exactmat.py").read_text(encoding="utf-8"))
    assert [n.lineno for n in ast.walk(tree) if isinstance(getattr(n, "op", None), ast.Div)] == []


def test_echelon_is_the_one_reduction():
    # Gauss-Jordan elimination is retired: every vector matroid reads the
    # reduced row-echelon form itself, and standard representations and
    # inverses read their coordinates off it
    assert readers("_echelon") == [("src/tumat/exactmat.py", "_coordinates"),
                                   ("src/tumat/matroid.py", "disjoint_sum"), ("src/tumat/matroid.py", "to_matroid")]
    assert readers("_coordinates") == [("src/tumat/exactmat.py", "ExactMatrix"),
                                       ("src/tumat/stdrepr.py", "standardize")]
    exactmat = ast.parse((ROOT / "src" / "tumat" / "exactmat.py").read_text(encoding="utf-8"))
    methods = {n.name: n for n in ast.walk(exactmat) if isinstance(n, ast.FunctionDef)}
    for name in ("pivot", "inverse"):  # each reads its result off [A | I]
        assert "_coordinates" in loaded_names(methods[name]), name


def test_labeled_blocks_are_read_by_label():
    # only LabeledMatrix turns one label into a position; select, standardize
    # and the sum layer read every block, glue lines included, through _cut,
    # and the certificate reads its summand blocks off the witness with no
    # copy and no patch
    for name in ("row_position", "col_position"):
        assert readers(name) == [("src/tumat/matroid.py", "LabeledMatrix")], name
    assert readers("_positions") == [("src/tumat/matroid.py", "LabeledMatrix"), ("src/tumat/matroid.py", "_cut")]
    assert {("src/tumat/matroid.py", "LabeledMatrix"), ("src/tumat/stdrepr.py", "standardize")} <= {*readers("_cut")}
    tree = ast.parse((ROOT / "src" / "tumat" / "sums.py").read_text(encoding="utf-8"))
    assert [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr in ("row", "col")] == []
    certificate = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "certifies_sum")
    assert "list" not in loaded_names(certificate)
    assert [n.lineno for n in ast.walk(certificate) if isinstance(n, ast.Subscript) and isinstance(n.ctx, ast.Store)] == []


def test_sign_masks_are_built_by_the_tu_check_alone():
    # the pre-pass and the blocks trust their sign masks: the entry scan of
    # is_totally_unimodular builds them, and nothing else may
    for name in ("_distinct_lines", "_blocks", "_block_violator"):
        assert readers(name) == [("src/tumat/tu.py", "is_totally_unimodular")], name


def test_the_order_4_rule_is_asked_by_the_block_leaf_alone():
    # the order-4 rule trusts that the screens found no violator of order 2
    # or 3 in its block, so only _block_violator may ask it, after them
    assert readers("_order_4_violator") == [("src/tumat/tu.py", "_block_violator")]


def test_plain_lines_are_read_off_the_command_parsers():
    # the plain reader answers a line only as argparse would: only _parse
    # asks it, it declares no option of its own (no string of its starts
    # with a dash), and argparse's private attributes are read only by its
    # table builder and by _commands, so build_parser stays the one place
    # where an option is declared
    assert readers("_plain") == [("src/tumat/cli.py", "_parse")]
    assert readers("_table") == [("src/tumat/cli.py", "_plain")]
    tree = ast.parse((ROOT / "src" / "tumat" / "cli.py").read_text(encoding="utf-8"))
    defs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    assert [n.value for name in ("_plain", "_table") for n in ast.walk(defs[name])
            if isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.startswith("-")] == []
    private = {(getattr(node, "name", node.lineno), n.attr) for node in tree.body for n in ast.walk(node)
               if isinstance(n, ast.Attribute) and n.attr.startswith("_") and not n.attr.startswith("__")}
    assert {name for name, _ in private} == {"_table", "_commands"}, sorted(private)


def file_reads():
    """(module path, top-level definition, mode) of each call in the package that opens a file
    to read it: ``open`` with no mode or a mode without w, a or x, and any ``read_text``/``read_bytes``."""
    found = []
    for path in sorted((ROOT / "src" / "tumat").rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                name = getattr(call.func, "id", getattr(call.func, "attr", None))
                if name in ("read_text", "read_bytes"):
                    found.append((str(path.relative_to(ROOT)), getattr(node, "name", node.lineno), name))
                if name != "open":
                    continue
                modes = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
                mode = ast.literal_eval(modes[0]) if modes else "r"
                if not set(mode) & set("wax"):
                    found.append((str(path.relative_to(ROOT)), getattr(node, "name", node.lineno), mode))
    return found


def test_documents_are_read_in_one_place_in_binary():
    # cli._read decodes each file once and keeps universal newlines itself,
    # so no other reader can drift from it; LabeledMatrix's position maps
    # are touched only in matroid.py, by the class and its builder _labeled,
    # so every label lookup raises the one missing-label message
    assert file_reads() == [("src/tumat/cli.py", "_read", "rb")]
    for name in ("_row_pos", "_col_pos"):
        assert readers(name) == [("src/tumat/matroid.py", "LabeledMatrix"), ("src/tumat/matroid.py", "_labeled")]


def test_values_are_quoted_only_through_shown():
    # a value formatted with !r echoes an input of any size into a message;
    # errors._shown quotes a bounded prefix, and is the only f-string that
    # uses !r in the package
    found = []
    paths = sorted((ROOT / "src" / "tumat").rglob("*.py"))
    assert len(paths) >= 10
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        shown = {id(n) for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "_shown"
                 for n in ast.walk(f)}
        found += [f"{path.relative_to(ROOT)}:{n.lineno}" for n in ast.walk(tree)
                  if isinstance(n, ast.FormattedValue) and n.conversion == ord("r") and id(n) not in shown]
    assert found == []


ENVIRONMENT_READERS = {"environ", "environb", "getenv", "getenvb"}


def test_no_module_reads_the_environment():
    # every guard is a module constant that force lifts, so no setting
    # reaches a verdict from outside the command line
    found = []
    paths = sorted((ROOT / "src" / "tumat").rglob("*.py"))
    assert len(paths) >= 10
    for path in paths:
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ({a.name for a in n.names} if isinstance(n, ast.ImportFrom) and n.module == "os"
                     else {n.attr} if isinstance(n, ast.Attribute) else set())
            found += [f"{path.relative_to(ROOT)}:{n.lineno}: {name}" for name in sorted(names & ENVIRONMENT_READERS)]
    assert found == []


def test_a_huge_label_gives_a_short_message():
    huge = "x" * 100_000
    m = LabeledMatrix(["r"], ["c"], ExactMatrix(GF2, [[1]]))
    messages = []
    for call in (lambda: m.entry(huge, "c"), lambda: m.entry("r", huge),
                 lambda: LabeledMatrix([[0] * 100_000], ["c"], ExactMatrix(GF2, [[1]]))):
        with pytest.raises(ShapeError) as info:
            call()
        messages.append(str(info.value))
    # a 2-sum glued at the huge row label, whose row in the left summand is zero
    left = StandardRepr(LabeledMatrix(["x1", huge], ["y1", "y2"], ExactMatrix(GF2, [[1, 1], [0, 0]])))
    right = StandardRepr(LabeledMatrix([huge, "x3"], ["y2", "y3"], ExactMatrix(GF2, [[1, 0], [1, 1]])))
    out = standard_repr_sum_2(left, right, huge, "y2")
    assert out.reason == REASON_ZERO_ROW
    messages.append(out.message)
    assert all(len(message) < 200 for message in messages), [len(message) for message in messages]
    assert messages[0] == f"no row labeled {'x' * 40!r}... (100000 characters)"


def test_every_catalogued_mutant_still_applies():
    # tests/mutation_audit.py replaces one line per mutant; each line must
    # still occur exactly once in the package, in the module the mutant
    # names, so the catalogue cannot rot as the code moves; no mutant runs
    from mutation_audit import MUTANTS, applied

    sources = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in sorted((ROOT / "src").rglob("*.py"))}
    assert len({m.name for m in MUTANTS}) == len(MUTANTS) >= 24
    for m in MUTANTS:
        assert [path for path, text in sources.items() for line in text.splitlines() if line.strip() == m.old] \
            == [m.path], m.name
        assert applied(sources[m.path], m) != sources[m.path], m.name
        assert m.kind in ("verdict", "work") and m.tests and all((ROOT / t).is_file() for t in m.tests), m.name
