"""Unit tests for the whole-program project model (call graph etc.).

The model is the substrate the interprocedural rule families walk, so
these tests pin its resolution semantics: direct calls, ``self.``
method resolution through declared bases, attribute- and local-typed
receivers, relative imports, opaque duck-typed sinks, effect records
(global mutations) and the BFS reachability helpers.
"""

from pathlib import Path

from repro.analysis.config import LintConfig, load_config
from repro.analysis.engine import collect_files, parse_file
from repro.analysis.project import MODULE_SCOPE, ProjectModel


def build(tmp_path, files):
    """Write ``{relpath: source}`` and build the project model."""
    for relpath, source in files.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    for package_dir in sorted({p.parent for p in tmp_path.rglob("*.py")}):
        init = package_dir / "__init__.py"
        if package_dir != tmp_path / "src" and not init.exists():
            init.write_text("", encoding="utf-8")
    return model_of(LintConfig(root=Path(tmp_path)))


def model_of(config):
    parsed = [parse_file(path, config) for path in collect_files(config)]
    return ProjectModel(parsed, config)


class TestSymbols:
    def test_functions_classes_and_methods(self, tmp_path):
        project = build(tmp_path, {
            "src/repro/core/codec.py": (
                "class Codec:\n"
                "    def encode(self, data):\n"
                "        return data\n"
                "def helper():\n"
                "    def inner():\n"
                "        return 1\n"
                "    return inner()\n"
            ),
        })
        functions = project.functions
        assert "repro.core.codec.Codec.encode" in functions
        assert "repro.core.codec.helper" in functions
        assert functions["repro.core.codec.helper.inner"].is_nested
        assert not functions["repro.core.codec.helper"].is_nested
        encode = functions["repro.core.codec.Codec.encode"]
        assert encode.class_id == "repro.core.codec.Codec"
        assert encode.params == ["self", "data"]
        codec = project.classes["repro.core.codec.Codec"]
        assert codec.methods["encode"] == "repro.core.codec.Codec.encode"

    def test_module_globals_recorded(self, tmp_path):
        project = build(tmp_path, {
            "src/repro/core/state.py": "CACHE = {}\nLIMIT = 3\n",
        })
        assert project.module_globals["repro.core.state"] == \
            {"CACHE", "LIMIT"}


class TestCallResolution:
    def test_direct_and_imported_calls(self, tmp_path):
        project = build(tmp_path, {
            "src/repro/core/a.py": (
                "from repro.core.b import helper\n"
                "def caller():\n"
                "    return helper() + local()\n"
                "def local():\n"
                "    return 1\n"
            ),
            "src/repro/core/b.py": "def helper():\n    return 2\n",
        })
        callees = {site.callee
                   for site in project.calls["repro.core.a.caller"]}
        assert "repro.core.b.helper" in callees
        assert "repro.core.a.local" in callees

    def test_relative_import_resolves(self, tmp_path):
        project = build(tmp_path, {
            "src/repro/core/a.py": (
                "from .b import helper\n"
                "def caller():\n"
                "    return helper()\n"
            ),
            "src/repro/core/b.py": "def helper():\n    return 2\n",
        })
        callees = {site.callee
                   for site in project.calls["repro.core.a.caller"]}
        assert "repro.core.b.helper" in callees

    def test_self_method_through_base_class(self, tmp_path):
        project = build(tmp_path, {
            "src/repro/core/c.py": (
                "class Base:\n"
                "    def shared(self):\n"
                "        return 0\n"
                "class Derived(Base):\n"
                "    def run(self):\n"
                "        return self.shared()\n"
            ),
        })
        callees = {site.callee
                   for site in project.calls["repro.core.c.Derived.run"]}
        assert "repro.core.c.Base.shared" in callees

    def test_declared_attribute_type_resolves(self, tmp_path):
        project = build(tmp_path, {
            "src/repro/core/d.py": (
                "class Cache:\n"
                "    def insert(self, item):\n"
                "        return item\n"
                "class Gateway:\n"
                "    def __init__(self):\n"
                "        self.cache = Cache()\n"
                "    def process(self, item):\n"
                "        return self.cache.insert(item)\n"
            ),
        })
        gateway = project.classes["repro.core.d.Gateway"]
        assert gateway.attr_types["cache"] == "repro.core.d.Cache"
        callees = {site.callee
                   for site in project.calls["repro.core.d.Gateway.process"]}
        assert "repro.core.d.Cache.insert" in callees

    def test_dataclass_constructor_lands_on_post_init(self, tmp_path):
        project = build(tmp_path, {
            "src/repro/core/d2.py": (
                "from dataclasses import dataclass\n"
                "@dataclass\n"
                "class Scheme:\n"
                "    window: int = 16\n"
                "    def __post_init__(self):\n"
                "        self.window += 0\n"
                "def build():\n"
                "    return Scheme()\n"
            ),
        })
        callees = {site.callee
                   for site in project.calls["repro.core.d2.build"]}
        assert callees == {"repro.core.d2.Scheme.__post_init__"}

    def test_annotated_local_resolves(self, tmp_path):
        project = build(tmp_path, {
            "src/repro/core/e.py": (
                "class Codec:\n"
                "    def encode(self, data):\n"
                "        return data\n"
                "def run(codec: Codec, data):\n"
                "    return codec.encode(data)\n"
            ),
        })
        callees = {site.callee
                   for site in project.calls["repro.core.e.run"]}
        assert "repro.core.e.Codec.encode" in callees

    def test_duck_typed_receiver_stays_opaque(self, tmp_path):
        project = build(tmp_path, {
            "src/repro/core/f.py": (
                "def run(anything):\n"
                "    return anything.do_it()\n"
            ),
        })
        sites = project.calls["repro.core.f.run"]
        assert len(sites) == 1
        assert sites[0].callee is None and sites[0].external is None

    def test_external_call_keeps_dotted_name(self, tmp_path):
        project = build(tmp_path, {
            "src/repro/core/g.py": (
                "import json\n"
                "def dump(payload, handle):\n"
                "    json.dump(payload, handle)\n"
            ),
        })
        externals = {site.external
                     for site in project.calls["repro.core.g.dump"]}
        assert "json.dump" in externals

    def test_module_level_calls_recorded(self, tmp_path):
        project = build(tmp_path, {
            "src/repro/core/h.py": (
                "def setup():\n"
                "    return 1\n"
                "VALUE = setup()\n"
            ),
        })
        owner = f"repro.core.h.{MODULE_SCOPE}"
        callees = {site.callee for site in project.calls[owner]}
        assert "repro.core.h.setup" in callees


class TestEffects:
    def test_global_mutations_recorded(self, tmp_path):
        project = build(tmp_path, {
            "src/repro/core/state.py": (
                "CACHE = {}\n"
                "COUNT = 0\n"
                "def store(key, value):\n"
                "    CACHE[key] = value\n"
                "def bump():\n"
                "    global COUNT\n"
                "    COUNT += 1\n"
                "def local_only():\n"
                "    CACHE = {}\n"
                "    CACHE['x'] = 1\n"
            ),
        })
        stored = project.mutations["repro.core.state.store"]
        assert any(m.name == "CACHE" for m in stored)
        bumped = project.mutations["repro.core.state.bump"]
        assert any(m.name == "COUNT" for m in bumped)
        # A local shadowing the global name is not a global mutation.
        assert "repro.core.state.local_only" not in project.mutations

    def test_mutating_method_call_recorded(self, tmp_path):
        project = build(tmp_path, {
            "src/repro/core/state2.py": (
                "ITEMS = []\n"
                "def push(item):\n"
                "    ITEMS.append(item)\n"
            ),
        })
        mutations = project.mutations["repro.core.state2.push"]
        assert any(m.name == "ITEMS" for m in mutations)


class TestReachability:
    def test_bfs_and_chain(self, tmp_path):
        project = build(tmp_path, {
            "src/repro/core/chain.py": (
                "def a():\n"
                "    return b()\n"
                "def b():\n"
                "    return c()\n"
                "def c():\n"
                "    return 1\n"
            ),
        })
        parents = project.reachable_from("repro.core.chain.a")
        assert "repro.core.chain.c" in parents
        chain = project.chain_to(parents, "repro.core.chain.c")
        assert [site.callee for site in chain] == [
            "repro.core.chain.b", "repro.core.chain.c"]

    def test_cycle_terminates(self, tmp_path):
        project = build(tmp_path, {
            "src/repro/core/cycle.py": (
                "def ping():\n"
                "    return pong()\n"
                "def pong():\n"
                "    return ping()\n"
            ),
        })
        parents = project.reachable_from("repro.core.cycle.ping")
        assert "repro.core.cycle.pong" in parents


class TestRepoModel:
    def test_builds_on_shipped_tree(self):
        root = Path(__file__).resolve().parent.parent
        project = model_of(load_config(root))
        # Spot-check a known hot-path edge: the encoder calls into the
        # cache it owns.
        encoder = "repro.core.encoder.ByteCachingEncoder"
        assert f"{encoder}.encode" in project.functions
        assert project.functions[f"{encoder}.encode"].class_id == encoder
        assert len(project.functions) > 500
        assert len(project.classes) > 100
