"""Run the ablation grid on a small noisy dataset and tabulate the variants.

Each variant changes one ingredient of the full method by overriding config
keys (`bench.VARIANTS`, printed first): "no-self-dis" pins the labeled
fraction at 1, "no-aa" swaps the attention proxy for raw embeddings,
"no-ldis" zeroes the pair-distance term, "hard-triplet" mines only the
hardest triple per anchor. A seconds-scale configuration keeps the grid
quick; expect noisier rankings than a full-scale run.

Run from the repository root:

    python3 demos/06_ablation_grid.py
"""

import tempfile
from pathlib import Path

from avdistill import RunConfig, SyntheticSpec, bench, format_table
from avdistill.bench import VARIANTS

base = RunConfig(
    synthetic=SyntheticSpec(n_classes=3, pairs_per_class=10, audio_dim=12,
                            visual_dim=16, noise_scale=0.3, label_noise=0.2,
                            seed=3),
    hidden_dims=(32, 32),
    batch_size=8,
    epochs=10,
    learning_rate=1e-3,
    seed=7,
    eval_every=0,
)

variants = ("full", "no-self-dis", "no-aa", "no-ldis", "hard-triplet")
for name in variants:
    print(f"{name:<14} {VARIANTS[name]}")
print()
with tempfile.TemporaryDirectory() as tmp:
    rows = bench(base, variants=variants, out_dir=tmp)
    print(format_table(rows))

    written = sorted(p.name for p in Path(tmp).iterdir())
    print(f"\nartifacts: {written}")
    for name in variants:
        files = sorted(p.name for p in (Path(tmp) / name).iterdir())
        print(f"  {name}: {files}")
