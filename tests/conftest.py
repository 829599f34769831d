"""Shared fixtures: one synthetic dataset and one deployed model per session."""

import json

import pytest

from adam.agents.computational import DeployedModel
from adam.dataset import (
    feature_medians,
    impute,
    parse_samples,
    split_grouped_stratified,
)
from adam.ensemble.gbdt import GBDTParams, fit_gbdt
from adam.synthetic import write_dataset


@pytest.fixture(scope="session")
def dataset_paths(tmp_path_factory):
    directory = tmp_path_factory.mktemp("data")
    csv_path, schema_path = write_dataset(directory, seed=0)
    return csv_path, schema_path


@pytest.fixture(scope="session")
def sample_set(dataset_paths):
    csv_path, schema_path = dataset_paths
    sample_set, rejected = parse_samples(csv_path, schema_path)
    assert not rejected
    return sample_set


@pytest.fixture(scope="session")
def deployment(sample_set):
    """Trained model + healthy reference + held-out test partition."""
    split = split_grouped_stratified(sample_set, 0.75, seed=0)
    train, test = split
    medians = feature_medians(train.feature_matrix())
    X_train = impute(train.feature_matrix(), medians)
    model = fit_gbdt(X_train, train.labels(),
                     GBDTParams(n_trees=40, max_depth=3, learning_rate=0.2),
                     seed=0)
    names = train.feature_names
    deployed = DeployedModel(
        model=model, feature_names=names,
        medians={name: float(value) for name, value in zip(names, medians)})
    healthy = train.subset(
        [s.sample_id for s in train.samples if s.label == 0])
    return {"split": split, "train": train, "test": test,
            "deployed": deployed, "reference": healthy, "medians": medians}


@pytest.fixture()
def corpus_path(tmp_path):
    """Three-document corpus with text lengths 2000 / 3600 / 5800."""
    docs = [
        {"publication_id": "PUB0001",
         "title": "Gut microbial diversity and Alzheimer's disease",
         "text": ("Alzheimer's disease shows consistent associations with "
                  "gut microbial community structure. ") * 25,
         "keywords": ["alzheimer", "diversity"]},
        {"publication_id": "PUB0002",
         "title": "Immunosenescence and the gut microbiome",
         "text": ("Immunosenescence alters the gut microbiome and bacterial "
                  "metabolites in aging adults. ") * 45,
         "keywords": ["microbiome", "immunosenescence"]},
        {"publication_id": "PUB0003",
         "title": "Short-chain fatty acids in cognition",
         "text": ("Short-chain fatty acids from gut bacteria modulate "
                  "cognition and neuroinflammation. ") * 75,
         "keywords": ["gut", "bacterial"]},
    ]
    for doc, target in zip(docs, (2000, 3600, 5800)):
        text = doc["text"]
        if len(text) < target:
            text += "x" * (target - len(text))
        doc["text"] = text[:target]
        assert len(doc["text"]) == target
    path = tmp_path / "corpus.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            fh.write(json.dumps(doc) + "\n")
    return path
