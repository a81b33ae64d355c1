"""The split between the package and its test oracles.

`src/qwalk` imports only the standard library and numpy (the README's
"Runtime dependency: numpy"), and no top-level name of tests/oracles.py
is defined again in the package, so a reference implementation cannot
creep back in as a second copy of itself.  A package module reads only
the public names of the others: a name another module depends on is part
of its interface and carries no underscore.  The prism's two shared
statements are written once each: `np.fft` is called only by the cosine
transform that finishes every real profile and by the complex P_t
kernel, and the neighbour rule lives only in the adjacency profile, so no
`np.eye` or `np.roll` rebuilds it.  A profile is expanded to a matrix only by the circulant view:
`sliding_window_view` and `take_along_axis` appear nowhere else, and the Hankel and Toeplitz gap tables are
views of it too, built in `walk` and `bounds` only by the one cached table
builder that the generator of folded gap blocks reads, and the averaged
kernel and the gap sums both loop over that generator.
One light-cone rule places P_t and the averaged kernel on short cycles: only
`light_cone` reads the ladder of short cycles and their reach, and only the
two batch forms call it.
The averaged kernel's O(n^2) block loop and the generator's call no np.sin,
np.cos, np.exp or np.sinc: their phases are per mode.  Nor do they reference
np.bincount: the kernel bins by column sums over diagonal views.  Nor does
the kernel's loop compare or mask: its diagonal and its resonant pairs, found
once per n from the sorted spectra, come split by block, so it references no np.less, np.greater,
np.logical_and, np.flatnonzero or np.nonzero and has no < or > operator.  The block XOR that
maps a vertex pair to its cell and a cell back to a vertex is written only
in `dihedral`, and the sampler builds its inverse CDF only in its one
measured step, which only its one walker loop calls; the scalar walk and
the batched checker both run that loop and nothing else does.  The literal
enumeration of the gap sum is a reference the tests compare against: the
package defines and exports it, and nothing in it calls it.  Each spectral
table has one home: outside `spectra` no module reads the per-branch
eigenvalues (the folded spectrum is `folded_eigenvalues`), and the mode
cosines are read there only by the phase rates and the conjecture's cosine
form.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "qwalk").glob("*.py"))
ORACLES = ROOT / "tests" / "oracles.py"


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def top_level_names(tree):
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(target.id for target in node.targets if isinstance(target, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def test_package_imports_only_stdlib_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy", "qwalk"}
    outside = []
    for path in PACKAGE:
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            outside += [f"{path.name}:{node.lineno} {root}" for root in roots if root not in allowed]
    assert PACKAGE
    assert not outside


def test_no_name_defined_in_both_package_and_oracles():
    oracle_names = top_level_names(parse(ORACLES))
    assert "DihedralElement" in oracle_names
    shared = {path.name: sorted(oracle_names & top_level_names(parse(path))) for path in PACKAGE}
    assert not any(shared.values()), shared


def private_reads(tree):
    """(line, name) of each underscore name this module takes from another
    qwalk module, by `from .m import _x` or as `m._x` on an imported m."""
    modules = {p.stem for p in PACKAGE}
    imported = set()
    reads = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        package = node.level > 0 or (node.module or "").split(".")[0] == "qwalk"
        if not package:
            continue
        for alias in node.names:
            if node.module in (None, "qwalk") and alias.name in modules:
                imported.add(alias.asname or alias.name)
            elif alias.name.startswith("_"):
                reads.append((node.lineno, f"{node.module}.{alias.name}"))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in imported
            and node.attr.startswith("_")
            and not node.attr.startswith("__")
        ):
            reads.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return reads


def test_no_private_name_read_across_modules():
    probe = ast.parse("from . import walk\nfrom .spectra import _x\nwalk._y(walk.z)\n")
    assert private_reads(probe) == [(2, "spectra._x"), (3, "walk._y")]
    reads = {path.name: private_reads(parse(path)) for path in PACKAGE}
    assert not any(reads.values()), reads


# the functions that may call np.fft: the shared cosine transform of every
# real profile, and P_t, whose amplitudes are complex
FFT_HOMES = {("dihedral", "cosine_profiles"), ("walk", "probability_batch")}


def transform_and_shift_uses(tree):
    """(line, enclosing top-level def or class, name) of each np.fft.*
    reference, numpy.fft import, and np.eye or np.roll."""
    uses = []
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
                if node.module.startswith("numpy.fft") or any(alias.name == "fft" for alias in node.names):
                    uses.append((node.lineno, owner, f"import {node.module}"))
            elif isinstance(node, ast.Attribute):
                base = node.value
                if isinstance(base, ast.Name) and base.id in ("np", "numpy") and node.attr in ("eye", "roll"):
                    uses.append((node.lineno, owner, f"np.{node.attr}"))
                elif (
                    isinstance(base, ast.Attribute)
                    and base.attr == "fft"
                    and isinstance(base.value, ast.Name)
                    and base.value.id in ("np", "numpy")
                ):
                    uses.append((node.lineno, owner, f"np.fft.{node.attr}"))
    return sorted(uses)


def test_transform_and_neighbour_rule_written_once():
    probe = ast.parse(
        "import numpy as np\nfrom numpy.fft import ifft\n"
        "def f(x):\n    return np.fft.rfft(np.roll(x, 1))\ny = np.eye(3)\n"
    )
    assert transform_and_shift_uses(probe) == [
        (2, None, "import numpy.fft"),
        (4, "f", "np.fft.rfft"),
        (4, "f", "np.roll"),
        (5, None, "np.eye"),
    ]
    homes = set()
    stray = []
    for path in PACKAGE:
        for line, owner, name in transform_and_shift_uses(parse(path)):
            if name.startswith("np.fft.") and (path.stem, owner) in FFT_HOMES:
                homes.add((path.stem, owner))
            else:
                stray.append(f"{path.name}:{line} {name} in {owner}")
    assert not stray
    assert homes == FFT_HOMES


# the one function that may build a strided window view or gather along
# an axis: every (2, n) profile is expanded by the circulant view
EXPANSION_HOME = ("dihedral", "circulant")
EXPANSION_NAMES = ("sliding_window_view", "take_along_axis")


def expansion_uses(tree):
    """(line, enclosing top-level def or class, name) of each import or
    reference of sliding_window_view or take_along_axis; an import is
    tagged "import"."""
    uses = []
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.ImportFrom):
                uses += [(node.lineno, owner, "import") for alias in node.names if alias.name in EXPANSION_NAMES]
            elif isinstance(node, ast.Name) and node.id in EXPANSION_NAMES:
                uses.append((node.lineno, owner, node.id))
            elif isinstance(node, ast.Attribute) and node.attr in EXPANSION_NAMES:
                uses.append((node.lineno, owner, node.attr))
    return sorted(uses)


def test_profile_expanded_only_by_the_circulant_view():
    probe = ast.parse(
        "import numpy as np\nfrom numpy.lib.stride_tricks import sliding_window_view\n"
        "def f(v, i):\n    return np.take_along_axis(sliding_window_view(v, 2), i, 0)\n"
    )
    assert expansion_uses(probe) == [
        (2, None, "import"),
        (4, "f", "sliding_window_view"),
        (4, "f", "take_along_axis"),
    ]
    homes = set()
    stray = []
    for path in PACKAGE:
        for line, owner, name in expansion_uses(parse(path)):
            if (path.stem, owner) == EXPANSION_HOME or (name == "import" and path.stem == EXPANSION_HOME[0]):
                homes.add((path.stem, name))
            else:
                stray.append(f"{path.name}:{line} {name} in {owner}")
    assert not stray
    assert homes == {("dihedral", "import"), ("dihedral", "sliding_window_view")}


# transcendental calls the averaged kernel's O(n^2) block loop must not make:
# its phases are per mode, and only `real_phase_average` on the resonant
# pairs, once per batch before the loop, evaluates a kernel directly; the
# loop that yields its gaps makes none
LOOP_BANNED = ("sin", "cos", "exp", "sinc")

# the O(n^2) loops those rules cover, and the generators they run over
BLOCK_LOOP_OWNERS = ("averaged_kernel", "folded_gap_blocks")
BLOCK_ITERATORS = ("blocks", "folded_gap_blocks")


def block_loops(tree, function, iterators=BLOCK_ITERATORS):
    """The `for ... in blocks(...)` and `for ... in folded_gap_blocks(...)`
    loops in the named top-level function."""
    return [
        loop
        for top in tree.body
        if isinstance(top, ast.FunctionDef) and top.name == function
        for loop in ast.walk(top)
        if isinstance(loop, ast.For)
        and isinstance(loop.iter, ast.Call)
        and isinstance(loop.iter.func, ast.Name)
        and loop.iter.func.id in iterators
    ]


def numpy_references(loop):
    """(line, name) of each np.<name> attribute in the loop's body."""
    return [
        (node.lineno, node.attr)
        for statement in loop.body
        for node in ast.walk(statement)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
    ]


def block_loop_transcendentals(tree, function):
    """Number of block loops (see `block_loops`) in the named top-level
    function, and (line, name) of each np.sin, np.cos, np.exp or np.sinc
    call inside them."""
    loops = block_loops(tree, function)
    calls = []
    for loop in loops:
        for node in (inner for statement in loop.body for inner in ast.walk(statement)):
            func = getattr(node, "func", None) if isinstance(node, ast.Call) else None
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in ("np", "numpy")
                and func.attr in LOOP_BANNED
            ):
                calls.append((node.lineno, f"np.{func.attr}"))
    return len(loops), sorted(calls)


def test_averaged_kernel_block_loop_has_no_transcendentals():
    probe = ast.parse(
        "import numpy as np\ndef f(x):\n    y = np.sin(x)\n    for r in blocks(3, 3):\n"
        "        z = np.sinc(x[r]) + real_phase_average(x[r], 2.0)\n        w = np.exp(np.cos(z))\n"
    )
    assert block_loop_transcendentals(probe, "f") == (1, [(5, "np.sinc"), (6, "np.cos"), (6, "np.exp")])
    probe = ast.parse("import numpy as np\ndef f(n):\n    for r, gaps in folded_gap_blocks(n):\n        y = np.sin(gaps)\n")
    assert block_loop_transcendentals(probe, "f") == (1, [(4, "np.sin")])
    tree = parse(ROOT / "src" / "qwalk" / "walk.py")
    for function in BLOCK_LOOP_OWNERS:
        assert block_loop_transcendentals(tree, function) == (1, []), function


def test_averaged_kernel_block_loop_has_no_scatter():
    # the kernel is binned by column sums of re-cut diagonal views, so the
    # block loop references no np.bincount, called or not
    probe = ast.parse(
        "import numpy as np\ndef f(x, i):\n    for r in blocks(3, 3):\n"
        "        g = np.bincount\n        y = g(i[r], x[r])\n"
    )
    assert [ref for loop in block_loops(probe, "f") for ref in numpy_references(loop)] == [(4, "bincount")]
    tree = parse(ROOT / "src" / "qwalk" / "walk.py")
    kernel, gaps = (block_loops(tree, function) for function in BLOCK_LOOP_OWNERS)
    assert any(name == "divide" for _, name in numpy_references(kernel[0]))
    assert any(name == "multiply" for _, name in numpy_references(gaps[0]))
    for loop in kernel + gaps:
        assert [ref for ref in numpy_references(loop) if ref[1] == "bincount"] == []


# what the kernel's block loop must not reference: its diagonal and its
# resonant pairs, from one search per n, come split by block with their
# positions and values before the loop
LOOP_MASKS = ("less", "greater", "logical_and", "flatnonzero", "nonzero")


def comparisons(loop):
    """(line, operator) of each <, <=, > or >= in the loop's body."""
    orders = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
    return [
        (node.lineno, type(op).__name__)
        for statement in loop.body
        for node in ast.walk(statement)
        if isinstance(node, ast.Compare)
        for op in node.ops
        if isinstance(op, orders)
    ]


def test_averaged_kernel_block_loop_has_no_mask():
    probe = ast.parse(
        "import numpy as np\ndef f(n, T):\n    for r, gaps in folded_gap_blocks(n):\n"
        "        small = np.logical_and(gaps < 1 / T, np.greater(gaps, -1 / T))\n"
        "        i = np.flatnonzero(small)\n"
    )
    (loop,) = block_loops(probe, "f")
    assert [ref for ref in numpy_references(loop) if ref[1] in LOOP_MASKS] == [
        (4, "logical_and"), (4, "greater"), (5, "flatnonzero")
    ]
    assert comparisons(loop) == [(4, "Lt")]
    (loop,) = block_loops(parse(ROOT / "src" / "qwalk" / "walk.py"), "averaged_kernel")
    assert any(name == "matmul" for _, name in numpy_references(loop))
    assert [ref for ref in numpy_references(loop) if ref[1] in LOOP_MASKS] == []
    assert comparisons(loop) == []


# the folded gap grids are built once: in `walk` and `bounds` only the
# cached table builder expands its sine table by `circulant`, and the
# averaged kernel and the gap sums' one sweep both loop over the generator
# that reads it
GAP_GRID_HOME = {("walk", "gap_tables")}
GAP_GRID_READERS = {("walk", "averaged_kernel"), ("bounds", "_gap_rows")}


def callers(tree, name):
    """Top-level functions that call `name`, bare or as an attribute."""
    return {
        top.name
        for top in tree.body
        if isinstance(top, ast.FunctionDef)
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == name
    }


def test_folded_gap_grids_built_once():
    probe = ast.parse(
        "def f(n):\n    return circulant(n)\n"
        "def g(n):\n    for r, x in folded_gap_blocks(n):\n        dihedral.circulant(x)\n"
    )
    assert callers(probe, "circulant") == {"f", "g"}
    assert [function for function in ("f", "g") if block_loops(probe, function, ("folded_gap_blocks",))] == ["g"]
    trees = {stem: parse(ROOT / "src" / "qwalk" / f"{stem}.py") for stem in ("walk", "bounds")}
    expanding = {(stem, function) for stem, tree in trees.items() for function in callers(tree, "circulant")}
    assert expanding == GAP_GRID_HOME
    readers = {
        (stem, top.name)
        for stem, tree in trees.items()
        for top in tree.body
        if isinstance(top, ast.FunctionDef) and block_loops(tree, top.name, ("folded_gap_blocks",))
    }
    assert readers == GAP_GRID_READERS


# the one light-cone rule: outside their own module-level definitions the
# short-cycle ladder and its reach are read only by `light_cone`, and only
# the two batch forms call it
LADDER_NAMES = ("SHORT_CYCLES", "SHORT_REACH")
LIGHT_CONE_CALLERS = {("walk", "probability_batch"), ("walk", "averaged_profiles")}


def name_reads(tree, names):
    """(line, enclosing top-level def or class, name) of each reference to
    one of `names`, bare or as an attribute, that does not assign it."""
    uses = []
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and node.id in names and isinstance(node.ctx, ast.Load):
                uses.append((node.lineno, owner, node.id))
            elif isinstance(node, ast.Attribute) and node.attr in names and isinstance(node.ctx, ast.Load):
                uses.append((node.lineno, owner, node.attr))
    return sorted(uses)


def test_one_light_cone_rule():
    probe = ast.parse(
        "A = 1\nB = A + 1\ndef f(n):\n    return walk.B[n]\n"
        "def g(n):\n    return f(n) + light_cone(n, [], f)\n"
    )
    assert name_reads(probe, ("A", "B")) == [(2, None, "A"), (4, "f", "B")]
    assert callers(probe, "light_cone") == {"g"}
    stray, readers, calling = [], set(), set()
    for path in PACKAGE:
        tree = parse(path)
        for line, owner, name in name_reads(tree, LADDER_NAMES):
            if (path.stem, owner) == ("walk", "light_cone"):
                readers.add(name)
            elif (path.stem, owner) != ("walk", None):
                stray.append(f"{path.name}:{line} {name} in {owner}")
        calling |= {(path.stem, function) for function in callers(tree, "light_cone")}
    assert not stray
    assert readers == set(LADDER_NAMES)
    assert calling == LIGHT_CONE_CALLERS


# the functions that may write the block XOR: a vertex pair becomes a cell
# in `pair_cell` and a cell becomes a vertex again in `cell_vertex`
XOR_HOMES = {("dihedral", "pair_cell"), ("dihedral", "cell_vertex")}


def xor_uses(tree):
    """(line, enclosing top-level def or class) of each ^ or ^= operator;
    a "^" inside a string is not one."""
    uses = []
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.BitXor):
                uses.append((node.lineno, owner))
    return sorted(uses)


def test_block_xor_written_only_in_dihedral():
    probe = ast.parse("def f(i, n):\n    label = 'b ^ 1'\n    i ^= 1\n    return (i // n) ^ 1\nk = 2 ^ 3\n")
    assert xor_uses(probe) == [(3, "f"), (4, "f"), (5, None)]
    homes = set()
    stray = []
    for path in PACKAGE:
        for line, owner in xor_uses(parse(path)):
            if (path.stem, owner) in XOR_HOMES:
                homes.add((path.stem, owner))
            else:
                stray.append(f"{path.name}:{line} in {owner}")
    assert not stray
    assert homes == XOR_HOMES


# the one function in the sampler that may build an inverse CDF: every
# measured step goes through it
CUMSUM_HOME = "_measured_step"


def cumsum_uses(tree):
    """(line, enclosing top-level def or class) of each np.cumsum reference."""
    uses = []
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "cumsum"
                and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy")
            ):
                uses.append((node.lineno, owner))
    return sorted(uses)


def test_inverse_cdf_written_once_in_sampler():
    probe = ast.parse("import numpy as np\ndef f(p):\n    return np.cumsum(p)\nc = np.cumsum([1])\n")
    assert cumsum_uses(probe) == [(3, "f"), (4, None)]
    uses = cumsum_uses(parse(ROOT / "src" / "qwalk" / "sampling.py"))
    assert uses and {owner for _, owner in uses} == {CUMSUM_HOME}


# the sampler's one walker loop: outside their definitions the measured
# step is read only by `_walk`, and `_walk` only by the two public paths
WALKER_LOOP_READERS = {
    "_measured_step": {("sampling", "_walk")},
    "_walk": {("sampling", "measured_walk"), ("sampling", "empirical_check")},
}


def test_one_walker_loop_in_sampler():
    probe = ast.parse("def f(x):\n    return _walk(x)\ng = sampling._walk\n")
    assert name_reads(probe, ("_walk",)) == [(2, "f", "_walk"), (3, None, "_walk")]
    readers = {name: set() for name in WALKER_LOOP_READERS}
    for path in PACKAGE:
        for _, owner, name in name_reads(parse(path), tuple(WALKER_LOOP_READERS)):
            readers[name].add((path.stem, owner))
    assert readers == WALKER_LOOP_READERS


# the (2n)^2 enumeration of the gap sum: defined in bounds, exported by
# __init__, and read by no report
ENUMERATION = "eigengap_inverse_sum_bruteforce"


def enumeration_uses(tree):
    """(line, kind) of each definition, import and reference of the
    enumeration; kind is "def", "import" or "use"."""
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == ENUMERATION:
            uses.append((node.lineno, "def"))
        elif isinstance(node, ast.ImportFrom):
            uses += [(node.lineno, "import") for alias in node.names if alias.name == ENUMERATION]
        elif (isinstance(node, ast.Name) and node.id == ENUMERATION) or (
            isinstance(node, ast.Attribute) and node.attr == ENUMERATION
        ):
            uses.append((node.lineno, "use"))
    return sorted(uses)


def test_gap_sum_enumeration_called_nowhere_in_package():
    probe = ast.parse(
        f"from .bounds import {ENUMERATION}\ndef {ENUMERATION}(n):\n    return n\n"
        f"total = {ENUMERATION}(3) + bounds.{ENUMERATION}(5)\n"
    )
    assert enumeration_uses(probe) == [(1, "import"), (2, "def"), (4, "use"), (4, "use")]
    found = {path.name: enumeration_uses(parse(path)) for path in PACKAGE}
    assert [kind for _, kind in found.pop("bounds.py")] == ["def"]
    assert [kind for _, kind in found.pop("__init__.py")] == ["import"]
    assert not any(found.values()), found


# one home per spectral table: outside `spectra` no module reads the
# per-branch `eigenvalues`, as the folded spectrum is `folded_eigenvalues`,
# and the mode-cosine grid is read only by the phase rates P_t and the
# averaged kernel share and by the conjecture's cosine form of su3
SPECTRAL_NAMES = ("eigenvalues", "mode_cosines")
MODE_COSINE_READERS = {("walk", "cycle_rates"), ("bounds", "su3_raw")}


def test_spectral_tables_read_from_one_home():
    probe = ast.parse("def f(n):\n    return eigenvalues(n, 1)[0]\ng = spectra.mode_cosines(5)\n")
    assert name_reads(probe, SPECTRAL_NAMES) == [(2, "f", "eigenvalues"), (3, None, "mode_cosines")]
    stray, cosine_readers = [], set()
    for path in PACKAGE:
        if path.stem == "spectra":
            continue
        for line, owner, name in name_reads(parse(path), SPECTRAL_NAMES):
            if name == "mode_cosines" and (path.stem, owner) in MODE_COSINE_READERS:
                cosine_readers.add((path.stem, owner))
            else:
                stray.append(f"{path.name}:{line} {name} in {owner}")
    assert not stray
    assert cosine_readers == MODE_COSINE_READERS
    assert "folded_eigenvalues" in callers(parse(ROOT / "src" / "qwalk" / "spectra.py"), "eigenvalues")
