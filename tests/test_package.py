"""The package surface: what `cmclab` exports is what it defines, and what
importing the CLI loads."""

import os
import subprocess
import sys
import types

import cmclab

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_all_is_the_public_surface():
    for name in cmclab.__all__:
        assert hasattr(cmclab, name), name
    public = [name for name, value in vars(cmclab).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)]
    assert sorted(cmclab.__all__) == sorted(public)
    # Removed, as nothing but their own tests reached them, or, for
    # has_interface_pinch, as nothing it was run on could make it fire.
    for name in ("classify_positive_jacobi", "jacobi_eval", "j_lambda",
                 "evaluate", "has_interface_pinch", "quantum"):
        assert name not in public


def test_cli_import_leaves_unused_scipy_subpackages_unloaded():
    # Leaves are shot by the package's own RK45, depths and Hausdorff
    # distances come from its own kernels, and CubicSpline is imported
    # inside leaf_to_radial_graph, which still works afterwards.
    code = (
        "import sys, cmclab.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[:2] in\n"
        "      (['scipy', 'integrate'], ['scipy', 'optimize'],\n"
        "       ['scipy', 'interpolate'], ['scipy', 'ndimage'],\n"
        "       ['scipy', 'spatial'], ['scipy', 'special'])))\n"
        "from cmclab import leaf_to_radial_graph, make_cone, shoot_leaf\n"
        "u = leaf_to_radial_graph(shoot_leaf(3, 3, 1.0, r_max=12.0),\n"
        "                         make_cone(3, 3), 2.0, 10.0, 64)\n"
        "print(u.n_nodes)\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["[]", "64"]
