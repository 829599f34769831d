"""Command-line surface for the full pipeline.

Subcommands:
  synth     write the bundled seeded synthetic dataset
  ingest    validate a dataset file and emit a summary
  index     chunk, embed, and persist a literature corpus
  train     split, select features, optionally tune, fit, save the model
  classify  run the three-agent pipeline over an evaluation cohort
  evaluate  run the seeded multi-model trial protocol
  compare   statistical comparison of two per-seed trial files
  report    re-render saved classification dossiers to documents

Configuration precedence: flags > --config file > built-in defaults.
Every artifact-producing run echoes its fully-resolved configuration as
resolved-config.json in the output directory. Exit status: 0 success,
1 diagnosed failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import gc
import sys
from collections import Counter
from dataclasses import asdict, replace
from pathlib import Path

from .config import (
    FIELD_TYPES,
    RunConfig,
    load_config_file,
    resolve_config,
    write_resolved_config,
)
from .errors import (FINITE, OBJECT, STRING, STRINGS, AdamError, AlignmentError, FormatError,
                     IntegrityError, ModelIntegrityError, SchemaError, check_fields,
                     is_file_name, json_text, parse_object, read_text, write_text)

# Every module beyond config and errors is imported inside the functions
# that use it, so each subcommand loads only the modules it runs: --help
# loads no numpy, compare only the statistics, report only the report
# renderer, classify neither the trial driver, the baselines, the chunker
# nor the HTTP client, and only ingest loads the statistics module.


# The RunConfig fields each subcommand exposes as flags. A field's flag is
# --field-name with dest field_name, except n_seeds (--seeds, dest seeds).
_CONFIG_FLAGS = {
    "synth": ("seed",),
    "ingest": ("dataset", "schema"),
    "index": ("corpus", "store", "embedding_backend", "embedding_dim",
              "embedding_url", "segment_length", "overlap"),
    "train": ("dataset", "schema", "model", "seed", "split_fraction",
              "n_features", "tuning_trials", "tuning_folds"),
    "classify": ("dataset", "schema", "model", "store", "seed", "n_pos",
                 "n_neg", "llm_backend", "llm_url", "embedding_backend",
                 "embedding_dim", "embedding_url", "top_k", "threshold",
                 "summarization_budget", "classification_budget",
                 "fallback_threshold"),
    "evaluate": ("dataset", "schema", "n_seeds", "seed_base",
                 "split_fraction", "n_pos", "n_neg", "n_features",
                 "tuning_trials", "tuning_folds", "fallback_threshold",
                 "tolerate_failures", "jobs", "llm_backend", "llm_url",
                 "store", "embedding_backend", "embedding_dim",
                 "embedding_url", "top_k", "threshold"),
    "compare": (),
    "report": (),
}
_FLAG_TYPES = {"int": int, "float": float}
_HELP = {
    "dataset": "CSV file",
    "schema": "column-role schema JSON",
    "corpus": "JSONL corpus file",
    "store": "directory of .advec collections",
    "model": "model bundle (train writes OUT/model.json by default)",
    "n_seeds": "number of consecutive seeds (from --seed-base)",
    "jobs": "worker processes for independent seeds (default 1)",
}


def _dest(field: str) -> str:
    return "seeds" if field == "n_seeds" else field


def _add_config_flags(parser: argparse.ArgumentParser, command: str) -> None:
    for field in _CONFIG_FLAGS[command]:
        flag = "--" + _dest(field).replace("_", "-")
        kind = FIELD_TYPES[field]
        if kind == "bool":
            parser.add_argument(flag, action="store_true", default=None)
            continue
        choices = ("mock", "remote") if field.endswith("_backend") else None
        parser.add_argument(flag, type=_FLAG_TYPES.get(kind), default=None,
                            choices=choices, help=_HELP.get(field))


def _resolve(args: argparse.Namespace) -> RunConfig:
    """The run configuration from defaults, --config and this command's
    flags."""
    file_values = load_config_file(args.config, args.command) if args.config else None
    return resolve_config(file_values, **{
        field: getattr(args, _dest(field))
        for field in _CONFIG_FLAGS[args.command]})


def _embedder(config: RunConfig):
    from .embedding import OfflineHashEmbedder, RemoteEmbedder

    if config.embedding_backend == "mock":
        return OfflineHashEmbedder(dim=config.embedding_dim)
    return RemoteEmbedder(url=config.embedding_url,
                          model=config.embedding_model,
                          dim=config.embedding_dim)


def _llm_backends(config: RunConfig):
    from .agents.llm import HttpChatBackend, ThresholdMockLLM, TitleEchoMock

    if config.llm_backend == "mock":
        return TitleEchoMock(), ThresholdMockLLM()
    return (HttpChatBackend(url=config.llm_url,
                            model=config.summarization_model),
            HttpChatBackend(url=config.llm_url,
                            model=config.classification_model))


def _searcher(config: RunConfig):
    if config.store is None:
        return None
    from .vectorstore import SemanticSearch, load_collections

    collections = load_collections(config.store,
                                   expected_dim=config.embedding_dim)
    if not collections:
        raise FormatError(f"{config.store}: no collections found")
    return SemanticSearch(tuple(collections.values()), _embedder(config),
                          k=config.top_k, threshold=config.threshold)


def _load_sample_set(config: RunConfig, quiet: bool = False, diversity: bool = False):
    """(sample set, rejected rows); diversity asks for a taxon column."""
    from .dataset import parse_samples

    if config.dataset is None or config.schema is None:
        raise SchemaError("this command needs --dataset and --schema")
    sample_set, rejected = parse_samples(config.dataset, config.schema)
    if diversity and not sample_set.taxon_names:
        raise SchemaError(f"{config.dataset}: the schema gives no taxon column, so no "
                          "visit has a community for the agents' diversity profile")
    if rejected and not quiet:
        print(f"rejected {len(rejected)} row(s):", file=sys.stderr)
        for line_number, reason in rejected:
            print(f"  line {line_number}: {reason}", file=sys.stderr)
    return sample_set, rejected


# ---------------------------------------------------------------------------
# subcommands

def cmd_synth(args) -> int:
    from .dataset import parse_samples
    from .synthetic import write_dataset

    config = _resolve(args)
    out = Path(args.out)
    csv_path, schema_path = write_dataset(out, seed=config.seed)
    sample_set, _ = parse_samples(csv_path, schema_path)
    n = len(sample_set)
    positives = int(sample_set.labels().sum())
    print(f"wrote {csv_path}")
    print(f"wrote {schema_path}")
    print(f"samples: {n} ({positives} positive, {100.0 * positives / n:.2f}%)")
    write_resolved_config(replace(config, dataset=str(csv_path),
                                  schema=str(schema_path)), out, "synth")
    return 0


def _dataset_summary(config: RunConfig, ss, rejected) -> str:
    import statistics

    positives = int(ss.labels().sum())
    visits_per_study = Counter(sample.study_id for sample in ss.samples)
    counts = sorted(visits_per_study.values())
    lines = [
        f"dataset: {config.dataset}",
        f"samples: {len(ss)}",
        f"positive samples: {positives} "
        f"({100.0 * positives / len(ss):.2f}%)",
        f"studies: {len(visits_per_study)}",
        f"visits per participant: min {counts[0]}, "
        f"median {statistics.median(counts):g}, max {counts[-1]}",
        f"clinical columns: {len(ss.clinical_names)}",
        f"taxon columns: {len(ss.taxon_names)}",
        f"rejected rows: {len(rejected)}",
    ]
    lines.extend(f"  line {line_number}: {reason}"
                 for line_number, reason in rejected)
    return "\n".join(lines) + "\n"


def cmd_ingest(args) -> int:
    config = _resolve(args)
    summary = _dataset_summary(config, *_load_sample_set(config, quiet=True))
    print(summary, end="")
    if args.out is not None:
        out = Path(args.out)
        write_text(out / "dataset-summary.txt", summary)
        write_resolved_config(config, out, "ingest")
    return 0


def cmd_index(args) -> int:
    from .chunker import read_corpus
    from .vectorstore import STORE_SUFFIX, index_corpus, load_collections, save_collections

    config = _resolve(args)
    if config.store is None:
        raise SchemaError("index needs --store (directory for .advec files)")
    store = Path(config.store)
    built = None
    if config.corpus is not None:
        documents = read_corpus(config.corpus)
        built = index_corpus(documents, _embedder(config),
                             segment_length=config.segment_length,
                             overlap=config.overlap)
        # Only the count is printed; --verify's reload runs without the text.
        n_documents = len(documents)
        del documents
        # A collection the corpus no longer fills would stay in the store
        # and still be searched; refuse before writing anything.
        for path in sorted(store.glob(f"*{STORE_SUFFIX}")):
            if path.stem not in built:
                raise IntegrityError(
                    f"{path}: the corpus routes no document to collection "
                    f"{path.stem!r}; remove the file or index into another "
                    "--store")
        save_collections(built, store)
        for name in sorted(built):
            print(f"collection {name}: {built[name].count} record(s)")
        print(f"indexed {sum(c.count for c in built.values())} record(s) "
              f"from {n_documents} document(s) into {store}")
    if args.verify or config.corpus is None:
        loaded = load_collections(store, expected_dim=config.embedding_dim)
        if built is None and not loaded:
            raise FormatError(f"{store}: no collections found")
        total = sum(c.count for c in loaded.values())
        if built is not None:
            if set(loaded) != set(built):
                raise IntegrityError(
                    f"{store}: reloaded collection names {sorted(loaded)} "
                    f"differ from written {sorted(built)}")
            for name, collection in built.items():
                if loaded[name] != collection:
                    raise IntegrityError(
                        f"{store}: collection {name} changed across the "
                        "save/load round trip")
        print(f"verified {total} record(s) across {len(loaded)} "
              f"collection(s) in {store}")
    write_resolved_config(config, store, "index")
    return 0


def _model_bundle(deployed, split) -> dict:
    """The model.json document of a deployed model and its (train, test)
    split."""
    from .ensemble.gbdt import model_to_dict

    train, test = split
    return {
        "format": "adam-model-bundle",
        "model": model_to_dict(deployed.model),
        "feature_names": list(deployed.feature_names),
        "medians": dict(deployed.medians),
        "train_studies": list(train.study_ids()),
        "test_studies": list(test.study_ids()),
    }


# model_from_dict checks the "model" document itself.
_BUNDLE_FIELDS = {
    "format": (lambda v: v == "adam-model-bundle", "'adam-model-bundle'"),
    "model": OBJECT,
    "feature_names": STRINGS,
    "medians": (lambda v: isinstance(v, dict) and all(FINITE[0](x) for x in v.values()),
                "an object of finite numbers"),
    "train_studies": STRINGS,
    "test_studies": STRINGS,
}


def _load_model_bundle(path):
    """(deployed model, train study ids, test study ids) from a bundle
    written by train; anything malformed raises an AdamError naming path."""
    from .agents.computational import DeployedModel
    from .ensemble.gbdt import model_from_dict

    doc = parse_object(read_text(path), path)
    check_fields(doc, _BUNDLE_FIELDS, path)
    try:
        deployed = DeployedModel(
            model=model_from_dict(doc["model"]),
            feature_names=tuple(doc["feature_names"]),
            medians={k: float(v) for k, v in doc["medians"].items()})
    except (FormatError, ModelIntegrityError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc
    except AlignmentError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    return deployed, tuple(doc["train_studies"]), tuple(doc["test_studies"])


def cmd_train(args) -> int:
    from .ensemble.metrics import evaluate_binary
    from .evaluation import fit_seed

    config = _resolve(args)
    out = Path(args.out)
    sample_set, _ = _load_sample_set(config)
    fit = fit_seed(sample_set, config, config.seed)
    train, test, model = fit.train, fit.test, fit.deployed.model
    train_metrics = evaluate_binary(fit.y_train,
                                    model.predict_proba(fit.X_train))
    test_metrics = evaluate_binary(test.labels(),
                                   model.predict_proba(fit.screened(test)))

    model_path = Path(config.model) if config.model else out / "model.json"
    write_text(model_path, json_text(_model_bundle(fit.deployed, (train, test))))
    print(f"trained on {len(train)} sample(s) from "
          f"{len(train.study_ids())} study(ies); "
          f"{len(fit.feature_names)} feature(s)")
    print(f"training accuracy: {train_metrics.accuracy:.4f}  "
          f"f1: {train_metrics.f1:.4f}")
    print(f"holdout accuracy: {test_metrics.accuracy:.4f}  "
          f"f1: {test_metrics.f1:.4f}  "
          f"({len(test)} sample(s), {len(test.study_ids())} study(ies))")
    print(f"wrote {model_path}")
    write_resolved_config(replace(config, model=str(model_path)), out, "train")
    return 0


def cmd_classify(args) -> int:
    from .agents.pipeline import classify_cohort, healthy_reference
    from .agents.report import render_report
    from .dataset import draw_eval_cohort

    config = _resolve(args)
    if config.model is None:
        raise SchemaError("classify needs --model (bundle from train)")
    out = Path(args.out)
    deployed, train_studies, test_studies = _load_model_bundle(config.model)
    sample_set, _ = _load_sample_set(config, diversity=True)
    reference = healthy_reference(
        sample_set.restrict_to_studies(train_studies))
    columns = set(sample_set.clinical_names) | set(sample_set.taxon_names)
    missing = [n for n in deployed.feature_names if n not in columns]
    if missing:
        raise AlignmentError(f"{config.model}: model feature {missing[0]!r} "
                             f"is not a column of {config.dataset}")
    test = sample_set.restrict_to_studies(test_studies)
    cohort = draw_eval_cohort(test, config.n_pos, config.n_neg, config.seed)
    searcher = _searcher(config)
    summarizer, classifier = _llm_backends(config)
    # Every sample's stages return before the first file is written.
    classified = classify_cohort(cohort, test, deployed, reference, searcher,
                                 summarizer, classifier, config)

    reports_dir = out / "reports"
    entries = []
    yes = 0
    for sample, report, transcripts in classified:
        report_path = reports_dir / f"{sample.sample_id}.md"
        write_text(report_path, render_report(report))
        yes += report.verdict == "Yes"
        entries.append({
            "sample_id": sample.sample_id,
            "study_id": sample.study_id,
            "visit_index": sample.visit_index,
            "label": sample.label,
            "probability": report.probability,
            "verdict": report.verdict,
            "report_path": str(report_path.relative_to(out)),
            "prompt_tokens": {t.stage: t.prompt_tokens for t in transcripts},
            "report": asdict(report),
        })
    dossier = {
        "format": "adam-dossier",
        "cohort": {"n_pos": config.n_pos, "n_neg": config.n_neg,
                   "seed": config.seed, "size": len(cohort.samples)},
        "samples": entries,
    }
    write_text(out / "dossier.json", json_text(dossier))
    print(f"classified {len(entries)} sample(s): {yes} Yes, "
          f"{len(entries) - yes} No")
    print(f"wrote {out / 'dossier.json'} and {len(entries)} report(s) "
          f"under {reports_dir}")
    write_resolved_config(config, out, "classify")
    return 0


def _parse_model_tags(text: str) -> tuple[str, ...]:
    from .evaluation import MODEL_TAGS

    # Each model tag by its full name and by its name without "baseline-".
    aliases = {alias: tag for tag in MODEL_TAGS
               for alias in (tag, tag.removeprefix("baseline-"))}
    tags = []
    for token in text.split(","):
        token = token.strip().lower()
        if not token:
            continue
        if token not in aliases:
            raise SchemaError(
                f"unknown model {token!r}; choose from {sorted(aliases)}")
        tag = aliases[token]
        if tag not in tags:
            tags.append(tag)
    if not tags:
        raise SchemaError("no models requested")
    return tuple(tags)


def cmd_evaluate(args) -> int:
    from .comparison import write_trials_csv
    from .evaluation import format_metrics_table, run_seeded_trials

    config = _resolve(args)
    out = Path(args.out)
    tags = _parse_model_tags(args.models)
    sample_set, _ = _load_sample_set(config, diversity="adam" in tags)
    seeds = range(config.seed_base, config.seed_base + config.n_seeds)
    summarizer, classifier = (_llm_backends(config) if "adam" in tags
                              else (None, None))
    searcher = _searcher(config) if "adam" in tags else None
    trials, failures = run_seeded_trials(
        sample_set, seeds, config=config, models=tags, summarizer=summarizer,
        classifier=classifier, searcher=searcher)

    write_trials_csv(trials, out / "trials.csv")
    for tag in tags:  # header only for a model with no successful seed
        write_trials_csv([t for t in trials if t.model == tag], out / f"trials-{tag}.csv")
    table = format_metrics_table(trials) if trials else "no trials\n"
    write_text(out / "metrics.txt", table)
    print(table, end="")
    if failures:
        lines = [f"seed {seed}: {message}" for seed, message in failures]
        write_text(out / "failures.txt", "\n".join(lines) + "\n")
        print(f"failures: {len(failures)} skipped "
              f"(see {out / 'failures.txt'})", file=sys.stderr)
    else:  # a failures.txt of an earlier run would name seeds that now passed
        (out / "failures.txt").unlink(missing_ok=True)
    print(f"wrote {out / 'trials.csv'} and per-model trial files")
    write_resolved_config(config, out, "evaluate")
    return 0


def _f1_column(path) -> list[float]:
    from .comparison import read_trials_csv

    rows = read_trials_csv(path)
    if not rows:
        raise FormatError(f"{path}: no trial rows")
    tags = sorted({row["model"] for row in rows})
    if len(tags) > 1:
        raise FormatError(
            f"{path}: holds {len(tags)} model tags {tags}; pass a "
            "single-model trial file (trials-<model>.csv)")
    return [row["f1"] for row in rows]


def cmd_compare(args) -> int:
    from .comparison import compare_models, format_summary

    config = _resolve(args)
    summary = compare_models(_f1_column(args.adam), _f1_column(args.baseline))
    text = format_summary(summary)
    print(text, end="")
    if args.out is not None:
        out = Path(args.out)
        write_text(out / "comparison.txt", text)
        write_resolved_config(config, out, "compare")
    return 0


_DOSSIER_FIELDS = {"format": (lambda v: v == "adam-dossier", "'adam-dossier'"),
                   "samples": (lambda v: isinstance(v, list), "a list")}
# The shape of each report payload of a dossier, by key.
_REPORT_FIELDS = {
    "sample_id": (lambda v: isinstance(v, str) and is_file_name(v), "a plain file name"),
    "verdict": (lambda v: v in ("Yes", "No"), "Yes or No"),
    "probability": (lambda v: FINITE[0](v) and 0 <= v <= 1, "a finite number in [0, 1]"),
    "sections": (lambda v: isinstance(v, list) and all(
        STRINGS[0](s) and len(s) == 2 for s in v),
        "a list of [title, text] pairs"),
    "summary": STRING,
    "step_transcripts": STRINGS,
}


def read_dossier(path) -> list:
    """The ``ClassificationReport`` of each entry of a dossier written by
    classify, in file order.

    A malformed dossier raises FormatError naming the file and, for a
    bad entry, its index in "samples"; a repeated sample_id is bad, as
    its report file would replace the earlier one's.
    """
    from .agents.report import ClassificationReport

    doc = parse_object(read_text(path), path)
    check_fields(doc, _DOSSIER_FIELDS, path)
    reports = []
    for index, entry in enumerate(doc["samples"]):
        check_fields(entry, {"report": OBJECT}, f"{path}: sample {index}")
        payload = entry["report"]
        check_fields(payload, _REPORT_FIELDS, f"{path}: sample {index}: report")
        if any(report.sample_id == payload["sample_id"] for report in reports):
            raise FormatError(f"{path}: sample {index}: report: sample_id "
                              f"{payload['sample_id']!r} is repeated")
        reports.append(ClassificationReport(**{
            **{key: payload[key] for key in _REPORT_FIELDS},
            "sections": tuple(tuple(section) for section in payload["sections"]),
            "step_transcripts": tuple(payload["step_transcripts"])}))
    return reports


def cmd_report(args) -> int:
    from .agents.report import render_report

    config = _resolve(args)
    reports = read_dossier(args.dossier)
    out = Path(args.out)
    reports_dir = out / "reports"
    for report in reports:
        write_text(reports_dir / f"{report.sample_id}.md", render_report(report))
    print(f"rendered {len(reports)} report(s) under {reports_dir}")
    write_resolved_config(config, out, "report")
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adam",
        description="Gut-microbiome Alzheimer's screening pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, out="required"):
        """Subparser with --config, --out unless out is None, and the
        config flags of _CONFIG_FLAGS[name]."""
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", help="JSON config file")
        if out is not None:
            p.add_argument("--out", required=out == "required",
                           help="output directory for artifacts")
        _add_config_flags(p, name)
        p.set_defaults(func=func)
        return p

    command("synth", cmd_synth, "write the seeded synthetic dataset")
    command("ingest", cmd_ingest, "validate a dataset and summarize it",
            out="optional")
    p = command("index", cmd_index, "chunk + embed a corpus into a store",
                out=None)
    p.add_argument("--verify", action="store_true",
                   help="reload the store and recount records")
    command("train", cmd_train, "fit and save the boosted ensemble")
    command("classify", cmd_classify, "run the agent pipeline over a cohort")
    p = command("evaluate", cmd_evaluate, "seeded multi-model trial protocol")
    p.add_argument("--models", default="gbdt,rf,lr,adam",
                   help="comma-separated: gbdt, rf, lr, adam")
    p = command("compare", cmd_compare, "compare two per-seed trial files",
                out="optional")
    p.add_argument("--adam", required=True,
                   help="trial CSV for the adam side")
    p.add_argument("--baseline", required=True,
                   help="trial CSV for the baseline side")
    p = command("report", cmd_report, "re-render reports from a dossier")
    p.add_argument("--dossier", required=True, help="dossier.json from classify")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (AdamError, OSError) as exc:  # any other exception is a program fault
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    """The process entry of ``python -m adam`` and the ``adam`` script. After
    main returns, every artifact is closed and only exit is left, so the
    objects still alive are frozen: the collections at interpreter exit
    then skip them. In-process callers of main keep running, so main does
    not freeze."""
    status = main()
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    run()
