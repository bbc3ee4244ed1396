"""Static rules on the library source."""

import ast
from pathlib import Path

import fringelab

SOURCE = Path(fringelab.__file__).parent


def test_no_assert_statements_in_library():
    # python -O strips assert statements, so they cannot guard runtime checks
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _tree(name):
    return ast.parse((SOURCE / name).read_text(encoding="utf-8"))


def _name(func) -> str:
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")


def test_law_kind_and_params_read_only_in_distributions():
    # distributions.py is the one module that knows the per-kind params
    # layout; mc_harness's StatFamily.params is not a law, so that name
    # stays allowed there
    allowed = {
        "distributions.py": {"kind", "params"},
        "mc_harness.py": {"params"},
    }
    found = [
        f"{path.name}:{node.lineno}:{node.attr}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(_tree(path.name))
        if isinstance(node, ast.Attribute)
        and node.attr in {"kind", "params"} - allowed.get(path.name, set())
    ]
    assert found == []


def test_lgamma_only_in_distributions():
    # the Poisson log-weight is written once, in distributions.py
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        if path.name != "distributions.py"
        for node in ast.walk(_tree(path.name))
        if (isinstance(node, ast.Attribute) and node.attr == "lgamma")
        or (isinstance(node, ast.Name) and node.id == "lgamma")
        or (isinstance(node, ast.alias) and node.name == "lgamma")
    ]
    assert found == []


def _references(tree, name: str) -> list:
    """Lines that read the module function ``name``: an attribute such as
    ``math.name`` or an import of ``name``.  A local variable that happens
    to share the name is neither."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr == name)
        or (isinstance(node, (ast.Import, ast.ImportFrom)) and any(a.name == name for a in node.names))
    ]


def _references_outside(name: str, home: str) -> list:
    return [
        f"{path.name}:{line}"
        for path in sorted(SOURCE.glob("*.py"))
        if path.name != home
        for line in _references(_tree(path.name), name)
    ]


def test_exp_only_in_distributions():
    # log weights are exponentiated by the one normalizer in distributions.py
    assert _references_outside("exp", "distributions.py") == []


def test_lcm_only_in_exact_moments():
    # values over a common denominator are read by the one reader in
    # exact_moments.py
    assert _references_outside("lcm", "exact_moments.py") == []


def test_stream_derivation_only_in_sampling():
    # seeds become PCG64 streams in sampling.py alone, in Seed.generator
    for name in ("SeedSequence", "PCG64"):
        assert _references_outside(name, "sampling.py") == []


def _stream_state_sites(tree) -> list:
    """Lines that read a ``pool`` attribute (a SeedSequence's entropy
    pool) or assign a ``state`` attribute (a bit generator's state)."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and (node.attr, type(node.ctx)) in {("pool", ast.Load), ("state", ast.Store)}
    )


def test_no_stream_is_derived_by_hand():
    # every stream is a Seed.generator; a state derived from a seed's pool
    # and set on a bit generator would be a second derivation, kept equal
    # to numpy's seeding only by hand
    found = [
        f"{path.name}:{line}"
        for path in sorted(SOURCE.glob("*.py"))
        for line in _stream_state_sites(_tree(path.name))
    ]
    assert found == []


def test_stream_state_rule_sees_pool_reads_and_state_writes():
    source = (
        "words = np.random.SeedSequence(1).pool.tolist()\n"
        "rng.bit_generator.state = {'state': 0}\n"
        "saved = rng.bit_generator.state\n"
        "pool = 3\n"
        "bit_generator.state = saved\n"
        "executor.pool.map(f, [])\n"
    )
    assert _stream_state_sites(ast.parse(source)) == [1, 2, 5, 6]


def test_reference_rule_sees_attributes_and_imports():
    source = "import math\nfrom math import exp\nx = math.exp(1) + np.exp(2)\nexp = 3\nmap(exp, [])\n"
    assert _references(ast.parse(source), "exp") == [2, 3, 3]


def _tree_builds_outside(tree, home: str) -> list:
    """Lines of the PlaneTree(...) and _unchecked_tree(...) calls outside
    the top-level function ``home``."""
    return [
        node.lineno
        for top in tree.body
        if getattr(top, "name", None) != home
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and _name(node.func) in {"PlaneTree", "_unchecked_tree"}
    ]


def test_sampling_builds_trees_only_in_sample_tree():
    # every sampler of sampling.py decodes a rotated word in _sample_tree;
    # a tree built anywhere else there would be a second tree sampler
    assert _tree_builds_outside(_tree("sampling.py"), "_sample_tree") == []


def test_tree_build_rule_sees_calls_outside_the_home():
    source = (
        "def _sample_tree(word):\n    return _unchecked_tree(word)\n"
        "def hub(word):\n    return tree_core.PlaneTree(word)\n"
        "def typed() -> PlaneTree:\n    pass\n"
        "root = PlaneTree((0,))\n"
    )
    assert _tree_builds_outside(ast.parse(source), "_sample_tree") == [4, 7]


def _repeat_sites(tree) -> list:
    """(definition, line) of every ``.repeat`` attribute (``np.repeat`` or
    an array's ``repeat``) and every import of ``repeat`` from numpy, with
    the enclosing definition as ``Class.method`` ("" at module level)."""
    sites = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{owner}.{child.name}".lstrip("."))
                continue
            if (isinstance(child, ast.Attribute) and child.attr == "repeat") or (
                isinstance(child, ast.ImportFrom)
                and child.module == "numpy"
                and any(alias.name == "repeat" for alias in child.names)
            ):
                sites.append((owner, child.lineno))
            visit(child, owner)

    visit(tree, "")
    return sites


def test_degree_multisets_are_built_only_by_the_two_builders():
    # a degree multiset is np.repeat over sorted degrees, and the shuffle
    # reads its non-leaves as the tail after the zeros; a third builder
    # could hand it an unsorted one
    homes = {("tree_core.py", "DegreeStatistic.degree_multiset"), ("sampling.py", "_LeafPair.multiset")}
    found = [
        f"{path.name}:{line}:{owner}"
        for path in sorted(SOURCE.glob("*.py"))
        for owner, line in _repeat_sites(_tree(path.name))
        if (path.name, owner) not in homes
    ]
    assert found == []


def test_repeat_rule_names_the_enclosing_definition():
    source = (
        "import numpy as np\nfrom numpy import repeat\nfrom itertools import repeat as again\n"
        "class Stat:\n    def multiset(self):\n        return np.repeat(self.d, self.c)\n"
        "def word(a):\n    return a.repeat(2) + list(again(0, 2))\n"
        "ones = numpy.repeat(1, 3)\n"
    )
    assert _repeat_sites(ast.parse(source)) == [("", 2), ("Stat.multiset", 6), ("word", 8), ("", 9)]


def test_every_lru_cache_is_bounded():
    # an unbounded cache keyed by a law grows with every fresh law for the
    # life of the process, so each cache states an integer maxsize
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(_tree(path.name)):
            for decorator in getattr(node, "decorator_list", []):
                call = decorator if isinstance(decorator, ast.Call) else None
                func = call.func if call else decorator
                if _name(func) not in {"lru_cache", "cache"}:
                    continue
                sizes = [k.value for k in call.keywords if k.arg == "maxsize"] + call.args if call else []
                if not (sizes and isinstance(sizes[0], ast.Constant) and type(sizes[0].value) is int):
                    found.append(f"{path.name}:{node.lineno}:{node.name}")
    assert found == []


def _unread_imports(tree) -> list:
    """(line, name) of every name a module imports but never loads; the
    strings of ``__all__`` count as loads, since they re-export."""
    imported = [
        (node.lineno, (alias.asname or alias.name).partition(".")[0])
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__"
        for alias in node.names
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", "") == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return [(line, name) for line, name in imported if name not in read]


def test_every_imported_name_is_read():
    # no linter runs on the library, so an import that its module no longer
    # reads would stay; judged from each module's syntax tree
    found = [
        f"{path.name}:{line}:{name}"
        for path in sorted(SOURCE.glob("*.py"))
        for line, name in _unread_imports(_tree(path.name))
    ]
    assert found == []


def test_unread_import_rule_sees_each_import_form():
    source = "import a\nimport b.c\nfrom d import e as f, g\nfrom h import i\n__all__ = ['i']\nb.x, g\n"
    assert _unread_imports(ast.parse(source)) == [(1, "a"), (3, "f")]


# The public API that may have no caller inside the library: the names the
# package exports, the console-script entry point, and the functions that
# only tests call today.  Functions the CLI calls have their caller in
# cli.py.  A new public function needs a caller in the library or a line
# here.
PUBLIC_API = frozenset(fringelab.__all__) | {
    "main",  # fringelab.cli:main, the console script
    # exact moments without a library caller yet
    "degree_factorial_moment",
    "partial_sum_pmf",
    "moment_gap_scan",
    # samplers reached from tests only
    "sample_conditioned_gw",
    # linear statistics without a library caller yet
    "additive_variance_density",
}


def _public_definitions() -> dict:
    """name -> file of every module-level public function and class."""
    return {
        node.name: path.name
        for path in sorted(SOURCE.glob("*.py"))
        for node in _tree(path.name).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }


def _read_outside_own_definition(tree) -> set:
    """Every name a module reads, as a name or an attribute, outside the
    top-level definition of that name; importing a name does not read it,
    and neither does assigning to it."""
    used = set()
    for top in tree.body:
        owner = getattr(top, "name", None)
        used |= {
            _name(node)
            for node in ast.walk(top)
            if isinstance(node, (ast.Name, ast.Attribute))
            and not isinstance(node.ctx, ast.Store)
            and _name(node) != owner
        }
    return used


def _library_reads() -> set:
    return set().union(*(_read_outside_own_definition(_tree(path.name)) for path in SOURCE.glob("*.py")))


def test_every_public_function_has_a_library_caller_or_is_public_api():
    # a name read anywhere in the library outside its own definition
    # counts as a use; importing it does not
    used = _library_reads()
    defined = _public_definitions()
    unused = sorted(f"{file}:{name}" for name, file in defined.items() if name not in used | PUBLIC_API)
    assert unused == []
    assert sorted(PUBLIC_API - defined.keys()) == []


# The public methods, classmethods and properties that may have no reader
# in the library, each with the reason.  A new public method needs a
# reader in the library or a line here; a method that gains a reader
# leaves the list.
PUBLIC_METHODS = {
    "_Law.poisson": "from_spec reaches it through getattr on the spec's kind",
    "_Law.power_law": "from_spec reaches it through getattr on the spec's kind",
    "StatFamily.full_binary": "a constructor that the benchmark and users call",
    "StatFamily.geometric_profile": "a constructor that the benchmark and users call",
    "StatFamily.one_hub": "a constructor that the benchmark and users call",
    "StatFamily.target": "the limit law of a family, for the hub-profile and simply generated references",
    "TollFunction.orderings": "the unordered-shape toll, for labelled trees in the harness",
}


def _public_methods(trees: dict) -> dict:
    """Class.name -> definition of every public method, classmethod and
    property in a class body of the modules in ``trees``.  Private classes
    count too: a base such as distributions._Law gives its public
    subclasses their methods."""
    return {
        f"{top.name}.{node.name}": node
        for _, tree in sorted(trees.items())
        for top in tree.body
        if isinstance(top, ast.ClassDef)
        for node in top.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_")
    }


def _unread_methods(trees: dict) -> list:
    """Class.name of each public method whose name the modules in ``trees``
    never read as an attribute, ``x.name``, outside the method's own
    definition.  The rule goes by name alone, so a shared attribute name
    hides a method: any object's attribute of that name counts as its
    reader, as numpy's ``.mean`` once did for ``OffspringDistribution.mean``,
    which only tests called."""
    reads = [
        node
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store)
    ]
    unread = []
    for name, definition in _public_methods(trees).items():
        own = set(map(id, ast.walk(definition)))
        if not any(node.attr == definition.name and id(node) not in own for node in reads):
            unread.append(name)
    return unread


def test_every_public_method_has_a_library_reader_or_a_reason():
    trees = {path.name: _tree(path.name) for path in SOURCE.glob("*.py")}
    assert sorted(_unread_methods(trees)) == sorted(PUBLIC_METHODS)


def test_method_rule_flags_methods_no_one_else_reads():
    source = (
        "class Law:\n"
        "    def read(self):\n        return 1\n"
        "    @property\n    def unread(self):\n        return self.unread\n"
        "    @classmethod\n    def build(cls):\n        return cls()\n"
        "    def mean(self):\n        return 0\n"
        "    def _private(self):\n        return 2\n"
        "class _Base:\n    def inherited(self):\n        return 3\n"
        "Law.build().read()\n"
        "spread = np.ones(3).mean()\n"  # a shared name hides Law.mean
        "law.inherited = None\n"
    )
    assert _unread_methods({"a.py": ast.parse(source)}) == ["Law.unread", "_Base.inherited"]


def _defined_names(top) -> list:
    """The names a module-level statement defines: a function or class, or
    each plain name an assignment binds, tuple targets included."""
    if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [top.name]
    targets = top.targets if isinstance(top, ast.Assign) else []
    return [
        node.id
        for target in targets
        for node in ast.walk(target)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
    ]


def _unread_private_definitions(trees: dict, used: set) -> list:
    """file:name of each module-level private function, class or constant
    (one leading underscore) of the modules in ``trees`` whose name is not
    in ``used``."""
    return [
        f"{file}:{name}"
        for file, tree in sorted(trees.items())
        for top in tree.body
        for name in _defined_names(top)
        if name.startswith("_") and not name.startswith("__") and name not in used
    ]


def test_every_private_definition_is_read_by_the_library():
    # a private helper that only tests read is a test oracle: it belongs
    # in tests/oracle_utils.py, not in the library
    trees = {path.name: _tree(path.name) for path in SOURCE.glob("*.py")}
    assert _unread_private_definitions(trees, _library_reads()) == []


def test_unread_private_rule_sees_reads_outside_the_definition():
    sources = {
        "a.py": (
            "def _called():\n    return 1\n"
            "def _recursive(n):\n    return _recursive(n - 1)\n"
            "class _Shape:\n    pass\n"
            "def _imported_only():\n    pass\n"
            "def __getattr__(name):\n    pass\n"
            "def public():\n    return _called() + _READ\n"
            "_READ = 1\n"
            "_WRITTEN = 2\n"
            "_PAIR, (_LONE, *_REST) = 3, (4, 5)\n"
            "__all__ = ['public']\n"
        ),
        "b.py": (
            "import a\nfrom a import _imported_only, _Shape\nshape = a._Shape\n"
            "a._WRITTEN = a._PAIR\n"
        ),
    }
    trees = {file: ast.parse(source) for file, source in sources.items()}
    used = set().union(*map(_read_outside_own_definition, trees.values()))
    assert _unread_private_definitions(trees, used) == [
        "a.py:_recursive",
        "a.py:_imported_only",
        "a.py:_WRITTEN",
        "a.py:_LONE",
        "a.py:_REST",
    ]


def _may_turn_off_shuffle(call: ast.Call) -> bool:
    """shuffle given as anything but the literal True: by keyword, as the
    sixth positional argument, or possibly inside **kwargs."""
    return len(call.args) >= 6 or any(
        k.arg is None
        or (k.arg == "shuffle" and not (isinstance(k.value, ast.Constant) and k.value.value is True))
        for k in call.keywords
    )


def test_no_choice_call_turns_off_its_shuffle():
    # the sampled-positions shuffle is uniform only because choice orders
    # its sample uniformly; with shuffle=False the order of Floyd's sample
    # is not uniform, so no call may turn it off
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(_tree(path.name))
        if isinstance(node, ast.Call) and _name(node.func) == "choice" and _may_turn_off_shuffle(node)
    ]
    assert found == []


def _environment_reads(tree) -> list:
    """The variable name (None when it is not a literal) of every use of
    os.environ and os.getenv, and of both names imported from os."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            reads += [None for alias in node.names if alias.name in {"environ", "getenv", "*"}]
        if not (
            isinstance(node, ast.Attribute)
            and node.attr in {"environ", "getenv"}
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        ):
            continue
        use = parents[node]
        if node.attr == "environ" and isinstance(use, ast.Attribute) and use.attr == "get":
            node, use = use, parents[use]  # os.environ.get(name, ...)
        if isinstance(use, ast.Call) and use.func is node and use.args:
            key = use.args[0]
        elif isinstance(use, ast.Subscript) and use.value is node and node.attr == "environ":
            key = use.slice  # os.environ[name]
        else:
            key = None
        reads.append(key.value if isinstance(key, ast.Constant) else None)
    return reads


def test_only_environment_variable_is_fringelab_threads():
    # the worker count is the one setting the library takes from the
    # environment; any other would change results outside the config
    found = {
        name
        for path in sorted(SOURCE.glob("*.py"))
        for name in _environment_reads(_tree(path.name))
    }
    assert found == {"FRINGELAB_THREADS"}
