"""Shared fixtures.

The desk-scale backbone used by the learning tests is pretrained once per
session (about 20 s of CPU) and cached under pytest's cache directory,
keyed by the recipe and by a fingerprint of the float bits of the forward
pass and of pretraining, so repeated sessions skip the wait but a change
to the numerics pretrains afresh.  Without the cache plugin it is
pretrained into a session temp directory.  Tests that only need tiny models build their own and never
touch this fixture.
"""
import hashlib
import json

import pytest

# The desk recipe: two balanced synthetic sources, each cued by its own
# steering-slot row during pretraining.  Pair-match at segment size 3 is
# hard enough to need real token comparison but leaves the frozen model
# enough headroom for prompt adaptation to reach high test accuracy.
DESK_RECIPE = {
    "majority": {"n": 2048, "length": 12, "seed": 11},
    "pair_match": {"n": 2048, "length": 7, "vocab_size": 16, "seed": 12},
    "pretrain": {"steps": 2500, "lr": 5e-3, "seed": 0},
}


def pretrain_desk_backbone(seed: int):
    """(frozen model, source accuracy report) of the desk recipe, pretrain seed overridden."""
    from accept.backbone import BackboneConfig, PretrainConfig, pretrain_backbone
    from accept.tasks import gen_task

    config = BackboneConfig()
    maj = DESK_RECIPE["majority"]
    pm = DESK_RECIPE["pair_match"]
    datasets = [
        gen_task("majority", n=maj["n"], length=maj["length"],
                 vocab_size=config.vocab_size, seed=maj["seed"]),
        gen_task("pair-match", n=pm["n"], length=pm["length"],
                 vocab_size=pm["vocab_size"], seed=pm["seed"]),
    ]
    pre = PretrainConfig(**{**DESK_RECIPE["pretrain"], "seed": seed})
    return pretrain_backbone(config, datasets, pre)


def desk_pair_match():
    """(train, test): fresh pair-match instances, disjoint seeds from the pretrain mixture."""
    from accept.tasks import gen_task

    pm = DESK_RECIPE["pair_match"]
    train = gen_task("pair-match", n=1024, length=pm["length"],
                     vocab_size=pm["vocab_size"], seed=500)
    test = gen_task("pair-match", n=512, length=pm["length"],
                    vocab_size=pm["vocab_size"], seed=501, split="test")
    return train, test


@pytest.fixture(scope="session")
def desk_backbone(request, tmp_path_factory):
    """(model, source_accuracy_report) for the pretrained frozen backbone."""
    from accept.backbone import BackboneModel, numerics_fingerprint

    cache = getattr(request.config, "cache", None)  # None under -p no:cacheprovider
    if cache is None:
        cache_dir = tmp_path_factory.mktemp("desk_backbone")
    else:
        key = hashlib.sha256(
            json.dumps([DESK_RECIPE, numerics_fingerprint()], sort_keys=True).encode()
        ).hexdigest()[:16]
        cache_dir = cache.mkdir(f"desk_backbone_{key}")
    report_path = cache_dir / "source_report.json"
    if (cache_dir / "arch.json").exists() and report_path.exists():
        model = BackboneModel.load(cache_dir)
        report = json.loads(report_path.read_text(encoding="utf-8"))
        return model, report

    model, report = pretrain_desk_backbone(DESK_RECIPE["pretrain"]["seed"])
    model.save(cache_dir)
    report_path.write_text(json.dumps(report), encoding="utf-8")
    return model, report


@pytest.fixture(scope="session")
def desk_task():
    """Fresh pair-match instances, disjoint seeds from the pretrain mixture."""
    return desk_pair_match()
