import re
from pathlib import Path

from gmmaug import (
    PhantomSpec,
    PopulationStats,
    generate_phantom,
    read_volume,
    save_stats,
    write_volume,
)

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example():
    """The first ``python`` block under the README's "## Library" heading."""
    library = README.read_text().split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)


def test_library_example_runs(tmp_path, monkeypatch):
    vol, _ = generate_phantom(PhantomSpec(dims=(24, 24, 24)).with_seed(4))
    write_volume(vol, tmp_path / "subject.nii")
    save_stats(PopulationStats(k=3, mu_mean=(0.2, 0.5, 0.8), mu_std=(0.03, 0.06, 0.08),
                               var_mean=(2e-3, 1e-3, 1e-3), var_std=(1e-3, 1e-3, 3e-3),
                               n_images=2), tmp_path / "stats.json")
    monkeypatch.chdir(tmp_path)
    exec(compile(library_example(), str(README), "exec"), {})
    for name in ("subject_aug", *(f"subject_aug_{seed}" for seed in range(42, 47))):
        assert read_volume(tmp_path / f"{name}.nii").dims == vol.dims
