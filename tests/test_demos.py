"""The narrative demos run end to end against the public API.

Demo 06 is not run, because it rewrites the SVG gallery tracked under
demos/out/; ``test_tracked_gallery_matches_render`` checks those files instead.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import bookcross
from bookcross import balanced_embedding, block_cyclic, blowup, render_svg, riskin_drawing

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0[1-5]_*.py"))


def test_star_import_resolves_every_public_name():
    # the README's library tour starts with this import
    namespace: dict = {}
    exec("from bookcross import *", namespace)
    assert set(bookcross.__all__) <= namespace.keys()


def test_five_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


# the drawings demo 06 renders, by file name under demos/out/
GALLERY = {
    "balanced_k5_K69.svg": lambda: balanced_embedding(5),
    "blowup_K45_3pages.svg": lambda: blowup(balanced_embedding(3), 5),
    "block_cyclic_K45_3pages.svg": lambda: block_cyclic(4, 5, 3),
    "riskin_K36_1page.svg": lambda: riskin_drawing(3, 6),
}


@pytest.mark.parametrize("name", GALLERY)
def test_tracked_gallery_matches_render(name):
    tracked = (ROOT / "demos" / "out" / name).read_bytes()
    assert render_svg(GALLERY[name]()).encode("utf-8") == tracked
