"""Shared fixtures.

The desk-scale backbone used by the learning tests is pretrained once per
session (about 20 s of CPU) and cached under pytest's cache directory,
keyed by the recipe and by a fingerprint of the float bits of the forward
pass, of a prompt-gradient step and of pretraining, so repeated sessions skip the wait but a change
to the numerics pretrains afresh.  Without the cache plugin it is
pretrained into a session temp directory.  Tests that only need tiny models build their own and never
touch this fixture.
"""
import hashlib
import json
import weakref

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


class GraphWatch:
    """Counts the training graphs still alive where a watched function starts.

    Every `linear_gelu` output (one per block) built with a gradient
    belongs to one step's graph, which keeps it alive through a saved
    activation or a backward closure.  So the number of those outputs still
    alive at a function's entry counts what is left of earlier graphs.
    """

    def __init__(self, monkeypatch):
        from accept import tensor as T

        self._monkeypatch = monkeypatch
        self.outputs = []  # weak references to the linear_gelu outputs of every graph
        self.entries = []  # (function name, outputs alive at its entry)
        linear_gelu = T.linear_gelu

        def recording_linear_gelu(x, w, b):
            out = linear_gelu(x, w, b)
            if out.needs_grad:
                self.outputs.append(weakref.ref(out.data))
            return out

        monkeypatch.setattr(T, "linear_gelu", recording_linear_gelu)

    def watch(self, owner, name: str) -> None:
        original = getattr(owner, name)

        def entered(*args, **kwargs):
            self.entries.append((name, sum(ref() is not None for ref in self.outputs)))
            return original(*args, **kwargs)

        self._monkeypatch.setattr(owner, name, entered)


@pytest.fixture
def graph_watch(monkeypatch):
    return GraphWatch(monkeypatch)
