"""Shared fixtures.

The desk-scale backbone used by the learning tests is pretrained once per
session (about two minutes of CPU) and cached under pytest's cache
directory, keyed by the recipe and by a fingerprint of the forward pass's
float bits, so repeated sessions skip the wait but a change to the numerics
pretrains afresh.  Without the cache plugin it is pretrained into a session
temp directory.  Tests that only need tiny models build their own and never
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


def numerics_fingerprint() -> str:
    """sha256 of the logits of one fixed forward pass on a fixed random init.

    Any change to the bits the forward computes changes this digest.
    """
    import numpy as np

    from accept.backbone import BackboneConfig, BackboneModel

    config = BackboneConfig()
    model = BackboneModel.random_init(config, seed=0)
    tokens = np.random.default_rng(0).integers(
        1, config.vocab_size, size=(8, config.max_len)
    )
    e, mask = model.embed_batch(tokens.tolist())
    logits = model.forward(model.assemble_input(e, mask))
    return hashlib.sha256(logits.data.tobytes()).hexdigest()


@pytest.fixture(scope="session")
def desk_backbone(request, tmp_path_factory):
    """(model, source_accuracy_report) for the pretrained frozen backbone."""
    from accept.backbone import (
        BackboneConfig,
        BackboneModel,
        PretrainConfig,
        pretrain_backbone,
    )
    from accept.tasks import gen_task

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

    config = BackboneConfig()
    maj = DESK_RECIPE["majority"]
    pm = DESK_RECIPE["pair_match"]
    datasets = [
        gen_task("majority", n=maj["n"], length=maj["length"],
                 vocab_size=config.vocab_size, seed=maj["seed"]),
        gen_task("pair-match", n=pm["n"], length=pm["length"],
                 vocab_size=pm["vocab_size"], seed=pm["seed"]),
    ]
    model, report = pretrain_backbone(
        config, datasets, PretrainConfig(**DESK_RECIPE["pretrain"])
    )
    model.save(cache_dir)
    report_path.write_text(json.dumps(report), encoding="utf-8")
    return model, report


@pytest.fixture(scope="session")
def desk_task():
    """Fresh pair-match instances, disjoint seeds from the pretrain mixture."""
    from accept.tasks import gen_task

    pm = DESK_RECIPE["pair_match"]
    train = gen_task("pair-match", n=1024, length=pm["length"],
                     vocab_size=pm["vocab_size"], seed=500)
    test = gen_task("pair-match", n=512, length=pm["length"],
                    vocab_size=pm["vocab_size"], seed=501, split="test")
    return train, test
