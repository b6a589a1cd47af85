"""The repro-specific AST lint rules."""

from __future__ import annotations

import subprocess
import textwrap

import pytest

from repro.analysis.static import (lint_paths, lint_source,
                                   lint_tracked_bytecode)


def _lint(code: str, path: str = "src/repro/fake/mod.py"):
    return lint_source(textwrap.dedent(code), path=path)


def _categories(findings):
    return {f.category for f in findings}


class TestWallClock:
    def test_time_time_flagged(self):
        findings = _lint("""
            import time
            def f():
                return time.perf_counter()
        """)
        assert _categories(findings) == {"wall-clock-time"}

    def test_from_import_flagged(self):
        findings = _lint("""
            from time import monotonic
            def f():
                return monotonic()
        """)
        assert _categories(findings) == {"wall-clock-time"}

    def test_datetime_now_flagged(self):
        findings = _lint("""
            import datetime
            def f():
                return datetime.datetime.now()
        """)
        assert _categories(findings) == {"wall-clock-time"}

    def test_bench_files_exempt(self):
        findings = _lint("""
            import time
            def f():
                return time.perf_counter()
        """, path="src/repro/bench/harness.py")
        assert findings == []

    def test_sim_clock_not_flagged(self):
        findings = _lint("""
            def f(sim):
                return sim.now
        """)
        assert findings == []


class TestRandomness:
    def test_module_level_random_flagged(self):
        findings = _lint("""
            import random
            def f():
                return random.random()
        """)
        assert _categories(findings) == {"unseeded-randomness"}

    def test_numpy_global_rng_flagged(self):
        findings = _lint("""
            import numpy as np
            def f():
                return np.random.randint(10)
        """)
        assert _categories(findings) == {"unseeded-randomness"}

    def test_seeded_instances_allowed(self):
        findings = _lint("""
            import random
            import numpy as np
            def f(seed):
                rng = random.Random(seed)
                gen = np.random.default_rng(seed)
                return rng.random() + gen.integers(10)
        """)
        assert findings == []


class TestTraceEmit:
    def test_bare_emit_flagged(self):
        findings = _lint("""
            def f(self):
                self.tracer.emit("x.y", a=1)
        """)
        assert _categories(findings) == {"unguarded-trace-emit"}

    def test_guarded_emit_allowed(self):
        findings = _lint("""
            def f(self):
                tr = self.tracer
                if tr.enabled:
                    tr.emit("x.y", a=1)
                else:
                    tr.tick("x.y")
        """)
        assert findings == []

    def test_injected_emit_exempt(self):
        findings = _lint("""
            def f(self):
                self.tracer.emit("x.fail", injected=True)
        """)
        assert findings == []

    def test_emit_before_raise_exempt(self):
        findings = _lint("""
            def f(self):
                self.tracer.emit("x.fail", error="Boom")
                raise RuntimeError("boom")
        """)
        assert findings == []


class TestCookieRelease:
    def test_unprotected_binding_flagged(self):
        findings = _lint("""
            def run(self, core, buf, n):
                cookie = yield from knem.create_region(core, buf, 0, n, 1)
                yield from knem.copy(core, cookie, 0, buf, 0, n, False)
        """)
        assert _categories(findings) == {"unreleased-cookie-path"}

    def test_finally_release_allowed(self):
        findings = _lint("""
            def run(self, core, buf, n):
                cookie = yield from knem.create_region(core, buf, 0, n, 1)
                try:
                    yield from knem.copy(core, cookie, 0, buf, 0, n, False)
                finally:
                    yield from self._release(core, cookie)
        """)
        assert findings == []

    def test_returning_cookie_allowed(self):
        findings = _lint("""
            def acquire(self, core, buf, n):
                cookie = yield from self._register_or_degrade(core, buf, 0, n, 1)
                return cookie
        """)
        assert findings == []


class TestDirection:
    """A copy must move in a direction the function's regions grant."""

    _REGION_AND_COPY = """
        def move(knem, core, buf, n):
            cookie = yield from knem.create_region(core, buf, 0, n, {prot})
            yield from knem.copy(core, cookie, 0, buf, 0, n, write={write})
            return cookie
    """

    def _lint_pair(self, prot, write):
        return _lint(self._REGION_AND_COPY.format(prot=prot, write=write))

    def test_writing_through_read_only_region_flagged(self):
        findings = self._lint_pair("PROT_READ", True)
        assert [f.category for f in findings] == ["static-direction-mismatch"]

    @pytest.mark.parametrize("prot,write", [
        ("PROT_WRITE", True),
        ("PROT_READ | PROT_WRITE", False),
    ])
    def test_granted_direction_not_flagged(self, prot, write):
        assert self._lint_pair(prot, write) == []


class TestShippedSources:
    def test_src_repro_is_lint_clean(self):
        assert lint_paths() == []

    def test_syntax_errors_are_findings(self):
        findings = lint_source("def broken(:\n", path="x.py")
        assert _categories(findings) == {"syntax-error"}


class TestTrackedBytecode:
    def _git(self, *args, cwd):
        subprocess.run(["git", *args], cwd=cwd, check=True,
                       capture_output=True,
                       env={"GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@t",
                            "GIT_COMMITTER_NAME": "t",
                            "GIT_COMMITTER_EMAIL": "t@t",
                            "HOME": str(cwd), "PATH": "/usr/bin:/bin"})

    def test_tracked_pyc_is_flagged(self, tmp_path):
        self._git("init", "-q", cwd=tmp_path)
        pyc = tmp_path / "__pycache__" / "mod.cpython-311.pyc"
        pyc.parent.mkdir()
        pyc.write_bytes(b"\x00bytecode")
        (tmp_path / "ok.py").write_text("x = 1\n")
        self._git("add", "-f", ".", cwd=tmp_path)
        findings = lint_tracked_bytecode(tmp_path)
        assert _categories(findings) == {"tracked-bytecode"}
        assert any("mod.cpython-311.pyc" in f.message for f in findings)

    def test_clean_repo_passes(self, tmp_path):
        self._git("init", "-q", cwd=tmp_path)
        (tmp_path / "ok.py").write_text("x = 1\n")
        self._git("add", ".", cwd=tmp_path)
        assert lint_tracked_bytecode(tmp_path) == []

    def test_outside_a_checkout_is_vacuously_clean(self, tmp_path):
        assert lint_tracked_bytecode(tmp_path) == []

    def test_this_repository_tracks_no_bytecode(self):
        assert lint_tracked_bytecode() == []
