"""The package surface: the exported names, each resolved on first use to
the object its defining module holds."""

import ast
import builtins
import importlib
import pathlib
import subprocess
import sys

import pytest

import ringoids

EXPORTED = (
    "AbPresentation AdditiveView AssemblyZeroMap AxiomFailure CeilingExceeded "
    "FinAbGroup FinGroup FinGroupoid FiniteRingoid GSet GroupQuotient Ideal "
    "IdealError IntMatrix IsoWitness KOneResult KZeroResult "
    "MatMorphism PiRing PiRingError RGDDocument RGDSemanticError "
    "RGDSyntaxError RelativeKZeroResult RingoidHom StructuralError "
    "TensorProduct Undecided ValidationReport abelianization assembly_zero "
    "check_simplicial_identities cofinality_check complete "
    "cyclic_ring degeneracy direct_sum discrete_groupoid "
    "disjoint_union_gset document_from enumerate_objsums "
    "equivariant_assembly_zero exterior_product face fibration_check "
    "forget_units gl gl_order group_as_groupoid group_ringoid "
    "group_ringoid_tensor_iso ideal_moduloid "
    "idem_classes identity_hom improper_ideal iso_class_table k0_bounded "
    "k0_induced k0_relative k0_via_nerve k1_bounded map_completion "
    "matrix_ring naturality_check one_object_ringoid oracle_compare "
    "orbit_skeleton parse_rgd print_rgd product_ring quotient "
    "ringoid_equal_structure scalar_ringoid smith_normal_form tensor "
    "tensor_group transport_groupoid twisted_group_ringoid "
    "unitization_projection unitization_splitting unitize validate "
    "validate_groupoid validate_hom validate_ideal validate_pi_ring "
    "with_self_scalar zero_ideal zero_moduloid zero_ring").split()

SUBMODULES = ("abgroup", "additive", "assembly", "constructions",
              "groupoids", "groups", "intlinalg", "k1", "krullschmidt",
              "ktheory", "lattice", "moduloids", "nerve", "relative", "rgd",
              "rgdprint", "rgdsections", "ringoid", "theorems")


def test_all_lists_the_exported_names():
    assert len(EXPORTED) == 90
    assert ringoids.__all__ == sorted(EXPORTED)
    assert set(EXPORTED) | set(SUBMODULES) <= set(dir(ringoids))


def test_every_library_module_has_an_export_entry():
    # a module split off later must not silently drop out of dir(ringoids)
    package = pathlib.Path(ringoids.__file__).parent
    modules = {path.stem for path in package.glob("*.py")} - {"__init__", "cli"}
    assert set(ringoids._EXPORTS) == modules == set(SUBMODULES)


def test_no_exported_name_is_a_submodule_name():
    # `ringoids.__getattr__` resolves module names first, so a module named
    # after an exported name would hide it (a module `gl` would hide `gl`)
    assert not set(EXPORTED) & set(SUBMODULES)


def test_each_name_is_the_object_of_its_defining_module():
    for name in EXPORTED:
        obj = getattr(ringoids, name)
        assert obj.__module__.startswith("ringoids."), name
        assert getattr(sys.modules[obj.__module__], name) is obj, name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from ringoids import *", namespace)
    for name in EXPORTED:
        assert namespace[name] is getattr(ringoids, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ringoids.no_such_name
    assert not hasattr(ringoids, "DEFAULT_CEILING")


def test_submodules_are_attributes():
    for module in SUBMODULES:
        assert getattr(ringoids, module) is importlib.import_module(
            "ringoids." + module)


def test_version():
    assert ringoids.__version__ == "0.1.0"


def _fresh(code):
    """Run code in a new interpreter; returns its stdout lines."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    return proc.stdout.splitlines()


def test_first_use_loads_only_the_defining_layers():
    # in this process every module is loaded already, so a new one shows
    # what a name pulls in on first use
    out = _fresh(
        "import sys, ringoids\n"
        "def loaded():\n"
        "    return ' '.join(sorted(m for m in sys.modules"
        " if m.startswith('ringoids.')))\n"
        "print(loaded())\n"
        "ringoids.FinAbGroup\n"
        "print(loaded())\n"
        "print(ringoids.ktheory.k0_bounded is ringoids.k0_bounded)\n"
        "print(loaded())\n")
    assert out == ["",
                   "ringoids.abgroup",
                   "True",
                   "ringoids.abgroup ringoids.intlinalg ringoids.krullschmidt "
                   "ringoids.ktheory ringoids.ringoid"]


def _unused_top_level_imports(source):
    """The names a module binds by a top-level import and never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_unused_import_detection():
    assert _unused_top_level_imports(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from .a import b, c as d\n"
        "def f():\n"
        "    return d(os)\n") == [(3, "b")]


def test_no_module_keeps_an_unused_top_level_import():
    # an unused import of a module off a subcommand's path would compile
    # that module again in every process that runs the subcommand
    package = pathlib.Path(ringoids.__file__).parent
    unused = {str(path.relative_to(package)):
              _unused_top_level_imports(path.read_text("utf-8"))
              for path in sorted(package.rglob("*.py"))}
    assert {name: found for name, found in unused.items() if found} == {}


def _table_reads(source):
    """The lines where a module subscripts, iterates or calls a method on
    a `compose_table` or `action` attribute (through `x or {}` too);
    passing it whole to a function is not a read."""
    tree = ast.parse(source)
    parent = {child: node for node in ast.walk(tree)
              for child in ast.iter_child_nodes(node)}
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute)
                and node.attr in ("compose_table", "action")
                and isinstance(node.ctx, ast.Load)):
            continue
        use = node
        while isinstance(parent[use], ast.BoolOp):
            use = parent[use]
        up = parent[use]
        if ((isinstance(up, (ast.Subscript, ast.Attribute)) and up.value is use)
                or (isinstance(up, (ast.For, ast.comprehension)) and up.iter is use)
                or (isinstance(up, ast.Call) and isinstance(up.func, ast.Name)
                    and up.func.id in dir(builtins))):
            found.append(node.lineno)
    return sorted(found)


def test_table_read_detection():
    assert _table_reads(
        "f(r.compose_table, action=r.action)\n"
        "t = r.compose_table[k]\n"
        "for k in r.compose_table: pass\n"
        "x = (r.action or {}).items()\n"
        "y = set(r.compose_table)\n"
        "z = [t for t in r.action]\n") == [2, 3, 4, 5, 6]


def _sparse_reads(source):
    """The lines where a module names the sparse form of a ringoid's
    tables, as an attribute or as a string (for getattr)."""
    names = ("_compose_rows", "_action_rows")
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if (isinstance(node, ast.Attribute) and node.attr in names)
                  or (isinstance(node, ast.Constant) and node.value in names))


def test_sparse_read_detection():
    assert _sparse_reads(
        "f(r.compose_table)\n"
        "rows = r._compose_rows\n"
        "g(r._action_rows[k])\n"
        "h = getattr(r, '_action_rows')\n") == [2, 3, 4]


def test_the_structure_constant_layout_has_one_home():
    # only `ringoid` reads a ringoid's tables and names their sparse form;
    # the others pass the tables whole, so a change of layout touches that
    # one module
    package = pathlib.Path(ringoids.__file__).parent
    reads = {str(path.relative_to(package)):
             _table_reads(path.read_text("utf-8"))
             + _sparse_reads(path.read_text("utf-8"))
             for path in sorted(package.rglob("*.py"))
             if path.name != "ringoid.py"}
    assert {name: lines for name, lines in reads.items() if lines} == {}
