"""Models, plans and seeded input pools shared by every perf workload.

Both the bench process (``run.py``) and the server subprocess
(``serve.py``) rebuild their models through these functions, so the two
sides hold bit-identical plans without shipping anything but generated
inputs across the process boundary.

``--seed`` drives the *inputs* (request pools, prompts). Model weights
and calibration data come from the fixed ``MODEL_SEED``: with weights
drawn per run seed, ``compile_model``'s own per-element fp32
verification rejected its plan on 2 of 100 seeds (bert_mini at seed 12:
max abs err 1.08e-3 against atol 1e-3; gpt_bench@prefill128 at seed 19,
a centroid near-tie), and a benchmark must not fail on the seed it is
handed.

All models use ``ConversionPolicy(v=4, c=16)`` and fp32 plans. The
calibration batches are deliberately small (k-means over activations is
the dominant set-up cost and the benchmark measures serving, not
accuracy); their sizes are constants so ``setup_s`` compares across
commits.
"""

import hashlib

import numpy as np

from repro.cluster import ClusterConfig, GenModelSpec, ModelSpec
from repro.gen import compile_generation
from repro.lutboost.converter import (
    ConversionPolicy,
    calibrate_model,
    convert_model,
)
from repro.models import (
    TransformerDecoderLM,
    bert_mini,
    gpt_nano,
    lenet,
    resnet20,
)
from repro.serving import compile_model

POLICY = ConversionPolicy(v=4, c=16)
PRECISION = "fp32"
MODEL_SEED = 0
CLASSIFIERS = ("lenet", "resnet20", "bert_mini")
NANO_BUCKETS = (8, 16, 32)
VOCAB = {"bert_mini": 64, "gpt_nano": 64, "gpt_bench": 256}

# name -> (per-request input shape, calibration batch size)
_CLASSIFIER_SHAPES = {
    "lenet": ((1, 16, 16), 8),
    "resnet20": ((3, 16, 16), 1),
    "bert_mini": ((16,), 4),
}
# name -> calibration prompt batch (rows, length)
_DECODER_CALIBRATION = {"gpt_bench": (2, 32), "gpt_nano": (4, 16)}


def rng_for(seed, *tags):
    """A generator keyed on the run seed and a purpose tag, so adding a
    new consumer never shifts another consumer's stream."""
    digest = hashlib.sha256(repr(tags).encode()).digest()
    return np.random.default_rng([int(seed), int.from_bytes(digest[:4], "big")])


def input_shape(name):
    return _CLASSIFIER_SHAPES[name][0]


def is_token_model(name):
    return name in VOCAB


def make_inputs(name, seed, count, tag="pool"):
    """``count`` request inputs for classifier ``name``: float32 images
    or int64 token rows."""
    shape = input_shape(name)
    rng = rng_for(seed, name, tag)
    if is_token_model(name):
        return rng.integers(0, VOCAB[name], size=(count,) + shape)
    return rng.normal(size=(count,) + shape).astype(np.float32)


def make_prompts(name, seed, count, min_len, max_len, tag="prompts"):
    """``count`` prompts for decoder ``name``. Lengths are evenly spaced
    over ``[min_len, max_len]`` and only their order and the token
    values depend on the seed: a uniform random draw of 24 lengths
    moved gen_inproc's prefill work, and with it tok/s, by 10% from
    seed to seed."""
    rng = rng_for(seed, name, tag)
    lengths = rng.permutation(
        np.linspace(min_len, max_len, count).round().astype(int))
    return [rng.integers(0, VOCAB[name], size=int(n)) for n in lengths]


def inputs_digest(arrays):
    """SHA-256 over the generated inputs, so "same seed, same inputs"
    is checkable from the printed report."""
    sha = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        sha.update(str((array.dtype.str, array.shape)).encode())
        sha.update(array.tobytes())
    return sha.hexdigest()


def new_classifier(name):
    if name == "lenet":
        return lenet(image_size=16, seed=MODEL_SEED)
    if name == "resnet20":
        return resnet20(width=8, seed=MODEL_SEED)
    if name == "bert_mini":
        return bert_mini(seed=MODEL_SEED)
    raise KeyError(name)


def new_decoder(name):
    if name == "gpt_nano":
        return gpt_nano(seed=MODEL_SEED)
    if name == "gpt_bench":
        # Benchmark-defined decoder: deep and long enough that prompts
        # span five prefill buckets and KV grows to 128, which gpt_nano
        # (max_len 32) cannot exercise.
        return TransformerDecoderLM(256, dim=64, num_heads=4, num_layers=4,
                                    ffn_dim=256, max_len=128,
                                    seed=MODEL_SEED)
    raise KeyError(name)


def convert_classifier(name):
    """Convert + calibrate classifier ``name``; returns
    ``(model, sample_input)`` ready for :func:`compile_model` (or for a
    cluster ``ModelSpec``, which compiles in the server)."""
    model = new_classifier(name)
    convert_model(model, POLICY)
    sample = make_inputs(name, MODEL_SEED, _CLASSIFIER_SHAPES[name][1],
                         "calib")
    calibrate_model(model, sample)
    return model, (sample[:3] if is_token_model(name) else None)


def convert_decoder(name):
    model = new_decoder(name)
    convert_model(model, POLICY)
    rows, length = _DECODER_CALIBRATION[name]
    calibrate_model(model, rng_for(MODEL_SEED, name, "calib").integers(
        0, VOCAB[name], size=(rows, length)))
    return model


def build_classifier(name):
    """``(model, plan)`` for classifier ``name``."""
    model, sample = convert_classifier(name)
    plan = compile_model(model, input_shape(name), precision=PRECISION,
                         sample_input=sample, name=name)
    return model, plan


def build_decoder(name, buckets=None):
    """``(model, GenPlan)`` for decoder ``name`` (default buckets unless
    given)."""
    model = convert_decoder(name)
    plan = compile_generation(model, buckets=buckets, precision=PRECISION,
                              name=name)
    return model, plan


def cluster_specs(lenet_model, nano_model):
    """What every benchmark cluster serves: lenet + ``gpt_nano``."""
    return {
        "lenet": ModelSpec(lenet_model, input_shape("lenet")),
        "gpt_nano": GenModelSpec(nano_model, buckets=NANO_BUCKETS),
    }


def cluster_config(workers):
    """The four knobs the benchmark fixes; everything else as shipped."""
    return ClusterConfig(workers=workers, max_batch_size=32, max_wait_ms=2.0,
                         max_pending=4096)
