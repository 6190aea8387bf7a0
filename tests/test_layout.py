"""Source layout: the package holds no test-only code, its modules
share no private names, and every source file parses as Python 3.10.

The library layer is every module of the package except the entry
layer, `experiments` and `cli`, whose public functions are the user
API.  A public function, class, module constant or method of any
module, the entry layer's included, that nothing under `src/` uses
belongs in the tests' helper modules, not in the package.  The
benchmark under `perfbench/` drives the package through its API as a
user does, so a name it calls counts as used too; its own tests do
not.  A `_`-prefixed name is private to its module: a name another
module imports is public, and is named so.
A module imports no name it never reads.
The package imports nothing but numpy and the standard library, the one
dependency `pyproject.toml` declares.  The robot description owns the
sensor wiring: no other module spells a sole, FT, IMU or push frame
name.
The control module's mode table owns the modes' wiring: no other module
spells a mode name or compares a mode string.  The closed-loop
controller reads sensors: its `tick` takes one sensor bundle, no method
reads a plant state, and it is built from the scenario, the mode and
the nets, with no plant.  A scenario is checked where it
is built: the plant's construction neither raises nor calls a plant
module function that does, and no statement builds a plant only to see
whether it raises.  Every function and method, private and nested
ones included, reads every parameter it takes, so no argument is
accepted only to be dropped, and every attribute a class stores on
`self` or lists in `__slots__` is read somewhere under `src/`,
`perfbench/` or `tests/`.
A library setting is settable only where something sets it: a call
under `src/` or `perfbench/` passes every parameter of a public library
function or method, so a value no caller passes is a module constant.
The CLI writes a run's artifacts: no other module opens a file, makes a
directory or writes CSV, but the readers and writers of the nets and
gains file formats.
The currents have one output stage: every control law returns torques,
and one function reads the current limit.
"""

import ast
import dataclasses
import sys
from pathlib import Path

from torquesense.control import MODES
from torquesense.model import desk_biped
from torquesense.plant import PlantState, SensorBundle

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "torquesense"
ENTRY_LAYER = ("experiments", "cli")


def public_names(tree):
    """(definition node, name, is a method) of every public module-level
    function, class and constant, and of every public method of a
    public class."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if node.name.startswith("_"):
                continue
            found.append((node, node.name, False))
            if isinstance(node, ast.ClassDef):
                found += [(m, m.name, True) for m in node.body
                          if isinstance(m, ast.FunctionDef)
                          and not m.name.startswith("_")]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(node, t.id, False) for t in targets
                      if isinstance(t, ast.Name) and not t.id.startswith("_")]
    return found


def references(trees, skip):
    """(names read, attributes looked up) outside the `skip` node."""
    names, attributes = set(), set()
    stack = list(trees)
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names, attributes


def parse(paths):
    return {path: ast.parse(path.read_text(), filename=str(path))
            for path in paths}


def test_library_modules_have_no_test_only_names():
    # the entry layer too: a sweep no command runs is test-only code
    src = parse(sorted(SRC.glob("*.py")))
    bench = parse(p for p in sorted((ROOT / "perfbench").glob("*.py"))
                  if not p.name.startswith("test_"))
    users = list(src.values()) + list(bench.values())
    checked = [entry for tree in src.values() for entry in public_names(tree)]
    assert len(src) >= 12 and len(checked) > 100
    unused = []
    for node, name, is_method in checked:
        names, attributes = references(users, skip=node)
        # a method is only reached as an attribute; anything else by its
        # name or as a module attribute
        if name not in attributes and (is_method or name not in names):
            unused.append(name)
    assert unused == []


def test_every_source_file_parses_as_python_3_10():
    """The tier-1 CI job runs on Python 3.10, the `requires-python`
    floor, which a newer interpreter cannot stand in for.  Every `.py`
    under `src/`, `tests/` and `perfbench/` parses with the 3.10
    grammar.  This checks syntax only: a call to a standard-library
    API newer than 3.10 still passes."""
    paths = [path for folder in ("src", "tests", "perfbench")
             for path in sorted((ROOT / folder).rglob("*.py"))]
    assert len(paths) > 30
    newer = []
    for path in paths:
        try:
            ast.parse(path.read_text(), filename=str(path),
                      feature_version=(3, 10))
        except SyntaxError as exc:
            newer.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert newer == []


def test_no_module_imports_a_private_name():
    imported = [f"{path.stem}: from {'.' * node.level}{node.module or ''} "
                f"import {alias.name}"
                for path, tree in parse(sorted(SRC.glob("*.py"))).items()
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names if alias.name.startswith("_")]
    assert imported == []


def test_no_module_imports_a_name_it_never_reads():
    unread = []
    for path, tree in parse(sorted(SRC.glob("*.py"))).items():
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        # `import a.b` binds `a`
        unread += [f"{path.stem}: {alias.asname or alias.name}"
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   for alias in node.names
                   if (alias.asname or alias.name).split(".")[0] not in read]
    assert unread == []


def imported_modules(tree):
    """Absolute module names of the tree's imports; a relative import
    stays inside the package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_imports_are_numpy_stdlib_or_the_package():
    allowed = sys.stdlib_module_names | {"numpy", "torquesense"}
    foreign = [f"{path.stem}: import {name}"
               for path, tree in parse(sorted(SRC.glob("*.py"))).items()
               for name in imported_modules(tree)
               if name.split(".")[0] not in allowed]
    assert foreign == []


def test_only_the_model_names_the_sensor_frames():
    model = desk_biped()
    wiring = {*model.sole_frames, *model.ft_frames, model.imu_frame,
              model.push_frame}
    assert len(wiring) == 6
    spelt = [f"{path.stem}: {node.value!r}"
             for path, tree in parse(sorted(SRC.glob("*.py"))).items()
             if path.stem != "model" for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and node.value in wiring]
    assert spelt == []


# the mode names and the words they are made of
MODE_WORDS = {*MODES, *(word for mode in MODES for word in mode.split("-"))}


def is_mode(node):
    return (isinstance(node, ast.Name) and node.id == "mode"
            or isinstance(node, ast.Attribute) and node.attr == "mode")


def mode_tests(tree):
    """The mode names and words the tree spells, and its == and !=
    comparisons and startswith/endswith calls on a `mode`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and node.value in MODE_WORDS:
            yield repr(node.value)
        elif isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops) \
                and any(map(is_mode, [node.left, *node.comparators])):
            yield ast.unparse(node)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in ("startswith", "endswith") \
                and is_mode(node.func.value):
            yield ast.unparse(node)


def test_only_the_control_module_tells_the_modes_apart():
    src = parse(sorted(SRC.glob("*.py")))
    assert len(list(mode_tests(src[SRC / "control.py"]))) >= len(MODES)
    spelt = [f"{path.stem}: {found}" for path, tree in src.items()
             if path.stem != "control" for found in mode_tests(tree)]
    assert spelt == []


def controller_methods():
    tree = ast.parse((SRC / "experiments.py").read_text())
    cls = next(node for node in tree.body if isinstance(node, ast.ClassDef)
               and node.name == "Controller")
    return {node.name: node for node in cls.body
            if isinstance(node, ast.FunctionDef)}


def attributes_read(fn, names):
    """Attributes `fn` looks up on any of the variables `names`."""
    return {node.attr for node in ast.walk(fn)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id in names}


def parameters(fn):
    """The parameters of a method after `self`."""
    args = fn.args
    return [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs][1:] \
        + [a.arg for a in (args.vararg, args.kwarg) if a]


def test_controller_tick_takes_one_sensor_bundle():
    methods = controller_methods()
    (sensors,) = parameters(methods["tick"])
    # what any method reads off an argument of that name
    read = set().union(*(attributes_read(fn, {sensors})
                         for fn in methods.values()))
    bundle = {f.name for f in dataclasses.fields(SensorBundle)}
    assert read and read <= bundle


def test_no_controller_method_reads_a_plant_state():
    truth = {f.name for f in dataclasses.fields(PlantState)} | {"base_pose"}
    truth -= {f.name for f in dataclasses.fields(SensorBundle)}
    read = {name: attributes_read(fn, set(parameters(fn))) & truth
            for name, fn in controller_methods().items()}
    assert "__init__" in read and not any(read.values()), read


def test_the_controller_is_built_from_the_scenario_alone():
    # a controller ticked on a recorded sensor stream has no plant
    methods = controller_methods()
    assert parameters(methods["__init__"]) == ["scenario", "mode", "nets"]
    names = {node.id for fn in methods.values() for node in ast.walk(fn)
             if isinstance(node, ast.Name)}
    assert not names & {"Plant", "PlantState", "plant", "initial_state"}


def raises(fn):
    return any(isinstance(node, ast.Raise) for node in ast.walk(fn))


def test_a_scenario_is_checked_where_it_is_built_not_by_the_plant():
    src = parse(sorted(SRC.glob("*.py")))
    module = src[SRC / "plant.py"]
    plant = next(node for node in module.body
                 if isinstance(node, ast.ClassDef) and node.name == "Plant")
    # the module's functions and the plant's methods that raise
    raising = {node.name for node in module.body + plant.body
               if isinstance(node, ast.FunctionDef) and raises(node)}
    init = next(node for node in plant.body
                if isinstance(node, ast.FunctionDef) and node.name == "__init__")
    called = {getattr(node.func, "id", getattr(node.func, "attr", None))
              for node in ast.walk(init) if isinstance(node, ast.Call)}
    assert "step" in raising and not raises(init)
    assert called & raising == set()
    # a Plant built as a statement of its own is discarded
    discarded = [f"{path.stem}:{node.lineno}" for path, tree in src.items()
                 for node in ast.walk(tree) if isinstance(node, ast.Expr)
                 and isinstance(node.value, ast.Call)
                 and isinstance(node.value.func, ast.Name)
                 and node.value.func.id == "Plant"]
    assert discarded == []


def functions(node, prefix=""):
    """(name, node, is a method) of every function and method under
    `node`, private and nested ones included; a name is qualified by the
    classes and functions it is defined in."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.FunctionDef):
            yield prefix + child.name, child, isinstance(node, ast.ClassDef)
        scope = isinstance(child, (ast.FunctionDef, ast.ClassDef))
        yield from functions(child, f"{prefix}{child.name}." if scope
                             else prefix)


def unread_parameters(fn, is_method):
    """The parameters `fn` takes and never reads, after `self` or `cls`
    for a method that is not static."""
    args = fn.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    names += [a.arg for a in (args.vararg, args.kwarg) if a]
    static = any(getattr(d, "id", None) == "staticmethod"
                 for d in fn.decorator_list)
    if is_method and not static:
        names = names[1:]
    read = {node.id for node in ast.walk(fn) if isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)}
    return [name for name in names if name not in read]


def test_every_function_reads_every_parameter():
    checked, unread = 0, []
    for path, tree in parse(sorted(SRC.glob("*.py"))).items():
        for name, fn, is_method in functions(tree):
            checked += 1
            args = unread_parameters(fn, is_method)
            if args:
                unread.append(f"{path.stem}.{name}: {', '.join(args)}")
    assert checked > 140
    assert unread == []


def stored_attributes(tree):
    """(class, attribute) of every attribute a class of the tree lists
    in its `__slots__` or assigns to `self` in its methods."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in ast.walk(cls):
            if isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) == "__slots__"
                    for t in node.targets):
                yield from ((cls.name, elt.value) for elt in node.value.elts)
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Store) \
                    and getattr(node.value, "id", None) == "self":
                yield cls.name, node.attr


def test_every_stored_attribute_is_read():
    # a read is any attribute lookup of that name, on any object
    trees = parse(path for folder in ("src", "perfbench", "tests")
                  for path in sorted((ROOT / folder).rglob("*.py")))
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    stored = {f"{cls}.{attr}" for path, tree in trees.items()
              if path.parent == SRC for cls, attr in stored_attributes(tree)}
    assert len(stored) > 100
    assert sorted(name for name in stored
                  if name.split(".")[1] not in read) == []


def call_names(call):
    """The name or attribute a call calls."""
    return {getattr(call.func, "id", None),
            getattr(call.func, "attr", None)} - {None}


def passes(call, name, index):
    """Whether `call` passes the parameter `name`, which sits at
    positional `index` (None for a keyword-only one)."""
    return (any(k.arg in (name, None) for k in call.keywords)
            or index is not None
            and (len(call.args) > index
                 or any(isinstance(a, ast.Starred) for a in call.args)))


def test_library_parameters_have_a_caller():
    # checked: the library's public functions and methods and, of its
    # dunders, `__init__` and `__call__`.  A class is called by its name
    # or, from a subclass, as `__init__`; an instance's `__call__` is
    # reached through a name the source does not tie to its class, so
    # any call counts for it
    src = parse(sorted(SRC.glob("*.py")))
    bench = parse(p for p in sorted((ROOT / "perfbench").glob("*.py"))
                  if not p.name.startswith("test_"))
    calls = [node for tree in [*src.values(), *bench.values()]
             for node in ast.walk(tree) if isinstance(node, ast.Call)]
    checked, unpassed = 0, []
    for path, tree in src.items():
        if path.stem in ENTRY_LAYER:
            continue
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) \
                    and not node.name.startswith("_"):
                functions = [(node.name, node, {node.name}, False)]
            elif isinstance(node, ast.ClassDef):
                functions = [(f"{node.name}.{m.name}", m,
                              {node.name, "__init__"} if m.name == "__init__"
                              else {m.name}, True)
                             for m in node.body
                             if isinstance(m, ast.FunctionDef)
                             and (m.name in ("__init__", "__call__")
                                  or not m.name.startswith("_"))]
            else:
                continue
            for name, fn, targets, is_method in functions:
                checked += 1
                reaching = [c for c in calls if fn.name == "__call__"
                            or call_names(c) & targets]
                args = fn.args
                static = any(getattr(d, "id", None) == "staticmethod"
                             for d in fn.decorator_list)
                positional = [a.arg for a in args.posonlyargs + args.args]
                if is_method and not static:
                    positional = positional[1:]
                params = [(a, i) for i, a in enumerate(positional)]
                params += [(a.arg, None) for a in args.kwonlyargs]
                unpassed += [f"{path.stem}.{name}: {arg}"
                             for arg, index in params
                             if not any(passes(c, arg, index)
                                        for c in reaching)]
    assert checked > 60
    assert unpassed == []


FILE_CALLS = {"open", "os.makedirs", "csv.writer"}
# the functions of the nets and gains file formats
FILE_FORMATS = {("pinn", "save_nets"), ("pinn", "load_nets"),
                ("kf", "save_gains")}


def test_only_the_cli_writes_run_artifacts():
    # (module, enclosing top-level definition, call) of every file call
    found = [(path.stem, getattr(node, "name", None), ast.unparse(call.func))
             for path, tree in parse(sorted(SRC.glob("*.py"))).items()
             for node in tree.body for call in ast.walk(node)
             if isinstance(call, ast.Call)
             and ast.unparse(call.func) in FILE_CALLS]
    assert {call for stem, _, call in found if stem == "cli"} == FILE_CALLS
    elsewhere = {(stem, name) for stem, name, _ in found if stem != "cli"}
    assert sorted(elsewhere - FILE_FORMATS) == []
    assert elsewhere == FILE_FORMATS


def test_one_function_clips_the_currents():
    # every module function and method that reads CURRENT_LIMIT, by
    # name or as a module attribute
    readers = [f"{path.stem}: {owner}{fn.name}"
               for path, tree in parse(sorted(SRC.glob("*.py"))).items()
               for node in tree.body
               for owner, fn in ([(f"{node.name}.", m) for m in node.body]
                                 if isinstance(node, ast.ClassDef)
                                 else [("", node)])
               if isinstance(fn, ast.FunctionDef)
               and any(getattr(read, "id", getattr(read, "attr", None))
                       == "CURRENT_LIMIT" for read in ast.walk(fn))]
    assert len(readers) == 1, readers
