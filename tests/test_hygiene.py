"""Source hygiene checks that need no linter: every import in `src/tritrain`
sits at module level and is used, every function, class and method there
is named by the program itself (`src/`, `demos/` or `perfbench/`), not only
by tests, every NamedTuple field and SimpleNamespace key built there is
read there, no function there returns a value that every program call
throws away, every name the benchmark's tracer patches still exists, every
argument its counter hooks read sits where they read it, every by-name
import of a name it patches on a module is patched too, a tiny traced run
of each workload's code calls every span that workload expects, the
benchmark trains with the acceptance fixture's config, and each snippet of
the mutation table occurs once in `src/` and each of its test ids names a
test function in its file. Each kernel has the one calling form the
program uses."""
import ast
import importlib.util
import inspect
import sys
import textwrap
import types
from pathlib import Path

import numpy as np
import pytest

from mutants import MUTANTS
from tritrain import cli, datagen, nnlib, trainer, trinet
from tritrain.trainer import TrainConfig

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "tritrain"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
PROGRAM = sorted(p for d in ("src", "demos", "perfbench") for p in (ROOT / d).rglob("*.py"))
# definitions kept though only tests reach them
REACH_ALLOWLIST = {
    "read_metrics_csv",  # the metrics.csv reader that resuming a run will use
}


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level import statements and never read."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


def test_checker_flags_an_unused_import_and_only_that():
    source = ("from __future__ import annotations\n"
              "import os, json as j\n"
              "from a.b import c, d\n"
              "def f(x: c) -> None:\n"
              "    return j.dumps(os.sep)\n")
    assert unused_imports(source) == ["line 3: d"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_imports(path):
    assert unused_imports(path.read_text()) == []


def nested_imports(source: str) -> list[str]:
    """Import statements inside a function or class body."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out += [f"line {n.lineno}: {ast.unparse(n)}" for n in ast.walk(node)
                    if isinstance(n, (ast.Import, ast.ImportFrom))]
    return out


def test_checker_flags_a_nested_import_and_only_that():
    source = ("import os\n"
              "class A:\n"
              "    def f(self):\n"
              "        from json import dumps\n"
              "        return dumps(os.sep)\n"
              "def g():\n"
              "    return os\n")
    assert nested_imports(source) == ["line 4: from json import dumps"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_at_module_level(path):
    assert nested_imports(path.read_text()) == []


def definitions(source: str) -> list[tuple[str, int]]:
    """Top-level functions and classes, and the methods of those classes,
    as (name, line); dunder methods are left out, Python calls them."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node.lineno))
        if isinstance(node, ast.ClassDef):
            out += [(m.name, m.lineno) for m in node.body
                    if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (m.name.startswith("__") and m.name.endswith("__"))]
    return out


def referenced(sources) -> set[str]:
    """Every `Name`, `Attribute` and exact string constant (for `getattr`
    and patch tables) in the sources; a definition alone names nothing."""
    names = set()
    for source in sources:
        for n in ast.walk(ast.parse(source)):
            if isinstance(n, ast.Name):
                names.add(n.id)
            elif isinstance(n, ast.Attribute):
                names.add(n.attr)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                names.add(n.value)
    return names


def unreached(source: str, program_sources) -> list[str]:
    names = referenced(program_sources)
    return [f"line {line}: {name}" for name, line in definitions(source)
            if name not in names and name not in REACH_ALLOWLIST]


def test_checker_flags_an_unreached_definition_and_only_that():
    source = ("class A:\n"
              "    def __init__(self): pass\n"
              "    def used(self): pass\n"
              "    def by_string(self): pass\n"
              "    def unused(self): pass\n"
              "def helper(): return A().used()\n"
              "def orphan(): pass\n"
              "def read_metrics_csv(): pass\n")
    caller = "helper(); getattr(A, 'by_string')\n"
    assert unreached(source, [source, caller]) == ["line 5: unused", "line 7: orphan"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_definition_is_reached_by_the_program(path):
    program = [p.read_text() for p in PROGRAM]
    assert unreached(path.read_text(), program) == []


def _own_nodes(node):
    """The nodes of a function's body, without those of functions and
    lambdas nested in it."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from _own_nodes(child)


def _dict_keys(node) -> set[str]:
    """The keys of a `dict(k=...)`, `dict.fromkeys((...))` or `{...}` node."""
    if isinstance(node, ast.Dict):
        return {k.value for k in node.keys if isinstance(k, ast.Constant)}
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "dict":
        return {kw.arg for kw in node.keywords if kw.arg}
    if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "fromkeys":
        return {e.value for e in getattr(node.args[0], "elts", []) if isinstance(e, ast.Constant)}
    return set()


def namespace_keys(f) -> set[str]:
    """The keys of each SimpleNamespace that function `f` builds: the call's
    keywords, the keys of a dict it splats that `f` builds, and the
    attributes `f` then assigns on it."""
    dicts, spaces, keys = {}, set(), set()
    for n in ast.walk(f):
        if isinstance(n, ast.Assign):
            for t in n.targets:
                if isinstance(t, ast.Name):
                    dicts.setdefault(t.id, set()).update(_dict_keys(n.value))
                    if getattr(getattr(n.value, "func", None), "id", None) == "SimpleNamespace":
                        spaces.add(t.id)
        if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "SimpleNamespace":
            for kw in n.keywords:
                keys |= {kw.arg} if kw.arg else dicts.get(getattr(kw.value, "id", None), set())
    return keys | {t.attr for n in ast.walk(f) if isinstance(n, ast.Assign) for t in n.targets
                   if isinstance(t, ast.Attribute) and getattr(t.value, "id", None) in spaces}


def positional_reads(f, classes) -> set[tuple[str, str]]:
    """(class, field) for each field of a NamedTuple in `classes` that `f`
    unpacks by position, from a parameter annotated with its class or a
    `[:k]` slice of one, into a name `f` reads."""
    params = {a.arg: a.annotation.id for a in f.args.args + f.args.kwonlyargs
              if getattr(a.annotation, "id", None) in classes}
    read = {n.id for n in ast.walk(f) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    out = set()
    for n in ast.walk(f):
        if not (isinstance(n, ast.Assign) and isinstance(n.targets[0], ast.Tuple)):
            continue
        value = n.value
        if (isinstance(value, ast.Subscript) and isinstance(value.slice, ast.Slice)
                and value.slice.lower is None and value.slice.step is None):
            value = value.value
        cls = params.get(getattr(value, "id", None))
        for target, field in zip(n.targets[0].elts, classes.get(cls, ())):
            if isinstance(target, ast.Starred):
                break
            if getattr(target, "id", None) in read:
                out.add((cls, field))
    return out


def unread_fields(sources: dict[str, str]) -> list[str]:
    """`<module>.<owner>.<field>` for each field of a NamedTuple class, and
    each key of a SimpleNamespace a function builds, that `sources`, a
    module name to source map, never read: read means by attribute on
    anything but `self` (`self.db` is the owner's own attribute), or, for a
    NamedTuple field, by the `positional_reads` of some function."""
    trees = {m: ast.parse(s) for m, s in sources.items()}
    classes, built, unpacked = {}, [], set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.ClassDef)
                    and any(getattr(b, "id", None) == "NamedTuple" for b in node.bases)):
                classes[node.name] = [s.target.id for s in node.body
                                      if isinstance(s, ast.AnnAssign)]
                built += [(module, node.name, field) for field in classes[node.name]]
    attrs = set()
    for module, tree in trees.items():
        for n in ast.walk(tree):
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
                built += [(module, n.name, key) for key in sorted(namespace_keys(n))]
                unpacked |= positional_reads(n, classes)
            elif (isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
                  and getattr(n.value, "id", None) != "self"):
                attrs.add(n.attr)
    return sorted(f"{module}.{owner}.{field}" for module, owner, field in built
                  if field not in attrs and (owner, field) not in unpacked)


def test_checker_flags_an_unread_field_and_only_that():
    source = ("class Bufs(NamedTuple):\n"
              "    by_attr: int\n"
              "    by_unpack: int\n"
              "    as_blank: int\n"
              "    into_unread: int\n"
              "    on_self: int\n"
              "def kernel(x, ws: Bufs, other):\n"
              "    _, by_unpack, _, unread = ws[:4]\n"
              "    on_self, as_blank, into_unread = other\n"
              "    return ws.by_attr + by_unpack + on_self + as_blank + into_unread\n"
              "class Net:\n"
              "    def make(self, n):\n"
              "        extra = dict(kept=n)\n"
              "        none = dict.fromkeys(('unset',))\n"
              "        ws = SimpleNamespace(key=n, **extra, **none)\n"
              "        ws.later = self.on_self\n"
              "        return ws\n"
              "    def read(self, ws):\n"
              "        return ws.key + ws.kept\n")
    assert unread_fields({"m": source}) == ["m.Bufs.as_blank", "m.Bufs.into_unread",
                                            "m.Bufs.on_self", "m.make.later", "m.make.unset"]


def test_every_workspace_field_is_read_by_the_program():
    # a field or key no program code reads is a buffer every batch fills
    # or carries for nothing
    assert unread_fields({p.stem: p.read_text() for p in MODULES}) == []


def _returns_a_value(f) -> bool:
    return any(isinstance(n, ast.Return) and n.value is not None
               and not (isinstance(n.value, ast.Constant) and n.value.value is None)
               for n in _own_nodes(f))


def discarded_returns(sources: dict[str, str], program_sources) -> list[str]:
    """`<module>.<name>` for each function, or method as `<class>.<name>`,
    defined at the top of `sources`, a module name to source map, that
    returns a value while every call of its name in `program_sources` is
    a statement of its own, the value thrown away. A name no program code
    calls is `unreached`'s to flag, not this."""
    called, used = set(), set()
    for source in program_sources:
        tree = ast.parse(source)
        dropped = {id(n.value) for n in ast.walk(tree) if isinstance(n, ast.Expr)}
        for n in ast.walk(tree):
            if isinstance(n, ast.Call):
                name = getattr(n.func, "id", None) or getattr(n.func, "attr", None)
                called.add(name)
                if id(n) not in dropped:
                    used.add(name)
    out = []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            members = [(None, node)]
            if isinstance(node, ast.ClassDef):
                members = [(node.name, m) for m in node.body]
            for owner, f in members:
                if (isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and f.name in called - used and _returns_a_value(f)):
                    out.append(".".join(filter(None, (module, owner, f.name))))
    return sorted(out)


def test_checker_flags_a_discarded_return_and_only_that():
    source = ("def dropped():\n"
              "    return 1\n"
              "def kept():\n"
              "    return 2\n"
              "def bare():\n"
              "    def inner():\n"
              "        return 3\n"
              "    return\n"
              "def uncalled():\n"
              "    return 4\n"
              "class A:\n"
              "    def method(self):\n"
              "        return 5\n"
              "def main(a):\n"
              "    dropped()\n"
              "    kept()\n"
              "    bare()\n"
              "    a.method()\n"
              "    return [kept()]\n")
    assert discarded_returns({"m": source}, [source]) == ["m.A.method", "m.dropped"]


def test_no_function_returns_a_value_every_program_call_discards():
    program = [p.read_text() for p in PROGRAM]
    assert discarded_returns({p.stem: p.read_text() for p in MODULES}, program) == []


def load_bench(name):
    """`perfbench/<name>.py` as a module, loaded from its file as it is."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up here
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_patch_site_exists():
    # a deleted patched name otherwise shows only as a missing span in a
    # traced benchmark run
    missing = [f"{getattr(owner, '__qualname__', owner.__name__)}.{attr}"
               for owner, attr, _, _ in load_bench("tracer").SITES if not hasattr(owner, attr)]
    assert missing == []


TINY_BOUND_CFG = """\
data.generator = "two_moons"
data.n_source = 60
data.n_target = 60
train.hidden_dim = 8
bound.pretrain_iters = 3
bound.thresholds_per_dim = 10
"""


def traced_span_calls(run) -> dict[str, int]:
    """Calls per span name while `run()` runs under the benchmark's tracer."""
    with load_bench("tracer").Tracer().installed() as tracer:
        run()
    return tracer.span_calls()


def tiny_moons_run():
    ds = datagen.generate(datagen.ShiftSpec(generator="two_moons", n_source=60, n_target=60,
                                            rotation_deg=30, noise_sigma=0.1))
    trainer.run(ds.source_x, ds.source_y, ds.target_x,
                TrainConfig(steps_k=2, iter_per_phase=3, hidden_dim=8),
                eval_x=ds.target_x, eval_y=ds.target_y_hidden)


@pytest.mark.parametrize("workload", ["MoonsSweep", "BoundCli"])
def test_every_expected_benchmark_span_records_a_call(tmp_path, capsys, workload):
    # a kernel the training path stops calling through its module, say one
    # inlined into its caller, leaves its span at zero: a traced benchmark
    # run then fails its patch-site check
    if workload == "MoonsSweep":
        calls = traced_span_calls(tiny_moons_run)
    else:
        config = tmp_path / "bound.cfg"
        config.write_text(TINY_BOUND_CFG)
        argv = ["bound-check", "--config", str(config), "--out", str(tmp_path / "out")]
        calls = traced_span_calls(lambda: cli.main(argv))
    expected = getattr(load_bench("workloads"), workload).expected_spans
    assert [span for span in expected if not calls.get(span)] == []


def hook_reads(hook) -> list[tuple[int, str]]:
    """(position, name) of each `_arg(args, kwargs, position, name)` call in
    a counter hook's source."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(hook)))
    return [(n.args[2].value, n.args[3].value) for n in ast.walk(tree)
            if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_arg"]


def misread_args(sites) -> list[str]:
    """`<span>: <name> at <position>` for each argument a site's hook reads
    where the patched function's signature has no parameter of that name.
    A call passing it by position then hands the hook another argument."""
    out = []
    for owner, attr, span, hook in sites:
        if hook is None:
            continue
        params = list(inspect.signature(getattr(owner, attr)).parameters)
        out += [f"{span}: {name} at {pos}" for pos, name in hook_reads(hook)
                if params[pos:pos + 1] != [name]]
    return out


def test_checker_flags_a_misread_argument_and_only_that():
    pool_bytes = load_bench("tracer")._pool_bytes
    lib = types.ModuleType("lib")
    lib.kept = lambda state, source_x, source_y, target_x, pseudo, step_k: None
    lib.swapped = lambda state, source_y, source_x, target_x, pseudo, step_k: None
    lib.short = lambda state, source_x, source_y, target_x: None
    sites = [(lib, "kept", "kept", pool_bytes), (lib, "swapped", "swapped", pool_bytes),
             (lib, "short", "short", pool_bytes), (lib, "short", "untraced", None)]
    assert misread_args(sites) == ["swapped: source_x at 1", "short: pseudo at 4"]


def test_every_tracer_hook_reads_the_arguments_it_names():
    # _pool_bytes reads adapt_step's source_x, target_x and pseudo by position
    assert misread_args(load_bench("tracer").SITES) == []


def test_bench_moons_config_is_the_acceptance_fixtures(moons_benchmark_config):
    # workloads.py says MOONS_CONFIG is that fixture's config, unchanged
    bench = load_bench("workloads").MOONS_CONFIG
    assert TrainConfig(**bench) == TrainConfig(**moons_benchmark_config)


# every extractor `build_net` makes: activation, dropout rate, batch norm
EXTRACTORS = [(a, p, bn) for a in ("sigmoid", "relu") for p in (0.0, 0.2) for bn in (False, True)]
# the parts of an extractor, and which extractors hold each
LAYER_KINDS = {"affine": lambda a, p, bn: True, "sigmoid": lambda a, p, bn: a == "sigmoid",
               "relu": lambda a, p, bn: a == "relu", "dropout": lambda a, p, bn: p > 0,
               "batch_norm": lambda a, p, bn: bn}


@pytest.mark.parametrize("kind", LAYER_KINDS)
def test_every_layer_kind_is_a_layer_subclass_the_tracer_counts(kind):
    # the tracer counts layer calls on the direct Layer subclasses that
    # define forward and backward themselves; f runs each kind inside one
    extractors = [e for e in EXTRACTORS if LAYER_KINDS[kind](*e)]
    assert extractors
    for activation, dropout_rate, use_bn in extractors:
        cfg = TrainConfig(hidden_dim=2, activation=activation, dropout_rate=dropout_rate,
                          use_bn=use_bn)
        cls = type(trainer.build_net(cfg, 2, 2).f)
        assert cls in nnlib.Layer.__subclasses__()
        assert {"forward", "backward"} <= cls.__dict__.keys()


def by_name_imports(source: str) -> set[tuple[str, str]]:
    """(module, name) for each `from .<module> import <name>`, or the same
    from `tritrain.<module>`, at module level."""
    out = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.ImportFrom) and node.module:
            if node.level == 0 and not node.module.startswith("tritrain."):
                continue
            out |= {(node.module.removeprefix("tritrain."), a.name) for a in node.names}
    return out


def untraced_imports(sources: dict[str, str], sites) -> list[str]:
    """`<module>: <name>` for each module in `sources` that binds, with a
    by-name import, a name the sites patch on the module defining it,
    while no site patches that name on the importing module itself. The
    importer then calls its own binding, which the patch never reaches."""
    on_modules = {(owner.__name__.rsplit(".", 1)[-1], attr)
                  for owner, attr, *_ in sites if isinstance(owner, types.ModuleType)}
    out = []
    for module, source in sorted(sources.items()):
        for lib, name in sorted(by_name_imports(source)):
            if (lib, name) in on_modules and (module, name) not in on_modules:
                out.append(f"{module}: {name}")
    return out


def test_checker_flags_an_untraced_by_name_import_and_only_that():
    lib, user = types.ModuleType("tritrain.lib"), types.ModuleType("tritrain.user")
    sites = [(lib, "traced", "lib.traced", None), (lib, "also", "lib.also", None),
             (user, "also", "lib.also", None)]
    sources = {"user": "from .lib import traced, also, plain\nfrom . import lib\n",
               "other": "from tritrain.lib import traced\nfrom numpy import also\n"}
    assert untraced_imports(sources, sites) == ["other: traced", "user: traced"]


def test_every_by_name_import_of_a_patched_function_is_a_patch_site():
    # a by-name binding escapes the patch on the defining module, so its
    # calls would silently drop out of that span
    sources = {p.stem: p.read_text() for p in MODULES}
    assert untraced_imports(sources, load_bench("tracer").SITES) == []


def unresolved_test_ids(mutants) -> list[str]:
    """Each test id of the mutants that names no test function defined at
    the top level of its file; a `[param]` suffix is ignored."""
    out = []
    for test_id in sorted({t for m in mutants for t in m.tests}):
        path, _, name = test_id.partition("::")
        body = ast.parse((ROOT / path).read_text()).body if (ROOT / path).is_file() else []
        if name.split("[")[0] not in {n.name for n in body if isinstance(n, ast.FunctionDef)}:
            out.append(test_id)
    return out


def test_checker_flags_an_unresolved_mutant_test_id_and_only_that():
    mutant = MUTANTS[0]._replace(tests=(
        "tests/test_hygiene.py::test_every_mutant_snippet_occurs_once_in_src[tanh_sigmoid]",
        "tests/test_hygiene.py::test_no_such_test", "tests/test_none.py::test_x"))
    assert unresolved_test_ids([mutant]) == ["tests/test_hygiene.py::test_no_such_test",
                                             "tests/test_none.py::test_x"]


def test_every_mutant_test_id_names_a_test_in_its_file():
    # after a rename, `python tests/mutants.py` would collect nothing for the
    # old id and report pytest's exit 4 as a surviving mutant
    assert unresolved_test_ids(MUTANTS) == []


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_every_mutant_snippet_occurs_once_in_src(mutant):
    # a change that moves a snippet moves its mutant too; otherwise
    # `python tests/mutants.py` would mutate nothing there
    assert mutant.file.startswith("src/")
    assert (ROOT / mutant.file).read_text().count(mutant.snippet) == 1


def optional_workspaces(modules) -> list[str]:
    """`<module>.<function>` or `<module>.<class>.<method>` for each
    function or method defined in `modules` whose `ws` parameter has a
    default."""
    out = []
    for module in modules:
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).items() if inspect.isclass(obj) else [(None, obj)]
            for method, f in members:
                if not inspect.isfunction(f):
                    continue
                ws = inspect.signature(f).parameters.get("ws")
                if ws is not None and ws.default is not ws.empty:
                    out.append(".".join(filter(None, (module.__name__, name, method))))
    return out


def test_optional_workspaces_flags_a_function_and_a_method():
    module = types.ModuleType("m")
    exec("def kernel(x, ws=None): pass\n"
         "def required(x, ws): pass\n"
         "class Net:\n"
         "    def loss(self, x, ws=None): pass\n"
         "    def fixed(self, x, ws): pass\n", vars(module))
    assert optional_workspaces([module]) == ["m.kernel", "m.Net.loss"]


def test_each_kernel_has_the_one_calling_form_the_program_uses():
    # a second form, converting its inputs and building its buffers, would
    # be reached by tests alone; batch norm's eps and momentum are the
    # constants BN_EPS and BN_MOMENTUM, no caller reads an affine layer's
    # input gradient, and no kernel takes an array its workspace holds
    kernels = (nnlib.affine_forward, nnlib.softmax_cross_entropy, nnlib.batch_norm_train,
               nnlib.affine_backward, trinet.weight_divergence)
    assert all("ws" in inspect.signature(f).parameters for f in kernels)
    # the objectives, too, take the workspace their caller owns
    assert optional_workspaces([nnlib, trinet]) == []
    # the extractor writes batch norm's output into its own buffer and
    # lives in a TriNet's arena, and the program reads only batch norm's
    # dx, the parameter gradients being the workspace's `grads` rows
    for f, name in ((nnlib.batch_norm_train, "out"), (nnlib.Sequential.__init__, "arena")):
        assert inspect.signature(f).parameters[name].default is inspect.Parameter.empty, name
    # batch norm's backward returns dx, the one array of its workspace the
    # program reads
    ws = nnlib.batch_norm_buffers(np.ones((1, 2)), np.zeros((1, 2)), 3, np.empty((2, 2)))
    nnlib.batch_norm_train(np.arange(6.0).reshape(2, 3), np.zeros((2, 2)),
                           np.zeros(1, dtype=np.int64), ws, np.empty((2, 3)))
    assert type(nnlib.batch_norm_backward(np.ones((2, 3)), ws)) is np.ndarray
    # an extractor's workspace holds only its activation's buffers: a
    # sigmoid's no relu mask, a relu's no exp scratch
    for activation in ("sigmoid", "relu"):
        cfg = TrainConfig(hidden_dim=2, activation=activation)
        f_ws = trainer.build_net(cfg, 2, 2).f.workspace(3)
        masks = [k for k, v in vars(f_ws).items()
                 if isinstance(v, np.ndarray) and v.dtype == bool]
        assert masks == ([] if activation == "sigmoid" else ["act"]), activation
        assert (f_ws.e is None) == (activation == "relu"), activation
    for f in (nnlib.batch_norm_train, nnlib.batch_norm_eval, nnlib.batch_norm_buffers):
        assert not {"eps", "momentum"} & inspect.signature(f).parameters.keys(), f.__name__
    for f, held in ((nnlib.affine_backward, {"W"}), (nnlib.affine_forward, {"b"}),
                    (nnlib.softmax_cross_entropy, {"logits"}),
                    (trinet.weight_divergence, {"W1", "W2"})):
        assert not held & inspect.signature(f).parameters.keys(), f.__name__
