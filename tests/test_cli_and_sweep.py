"""Tests for the CLI and the learning-rate sweep utility."""

import numpy as np
import pytest

from repro.bert.config import BertConfig
from repro.bert.model import BertModel
from repro.cli import build_parser, main
from repro.data.loader import PairEncoder
from repro.data.registry import load_dataset
from repro.models import SingleTaskMatcher, TrainConfig
from repro.models.sweep import sweep_learning_rate
from repro.text import WordPieceTokenizer, train_wordpiece


class TestCli:
    def test_parser_commands(self):
        parser = build_parser()
        args = parser.parse_args(["run", "--dataset", "bikes", "--model", "emba"])
        assert args.dataset == "bikes"
        args = parser.parse_args(["table", "1"])
        assert args.number == 1

    def test_invalid_table_number_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table", "9"])

    def test_profile_engine_parser(self):
        # Retired: Table 7's emba_ft row and perfbench `score` time the engine.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["profile-engine"])

    def test_casestudy_command(self, capsys):
        assert main(["casestudy"]) == 0
        out = capsys.readouterr().out
        assert "sandisk" in out and "transcend" in out

    def test_datasets_command(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "wdc_computers" in out
        assert "dblp_scholar" in out

    def test_run_command(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        code = main(["run", "--dataset", "wdc_computers", "--size", "small",
                     "--model", "bert", "--profile", "smoke"])
        assert code == 0
        out = capsys.readouterr().out
        assert "EM F1" in out

    def test_stream_command_records_run_and_recovers(self, capsys, tmp_path,
                                                     monkeypatch):
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))
        journal = str(tmp_path / "journal")
        argv = ["stream", "--dir", journal, "--offers", "120",
                "--offers-per-product", "4", "--score-batch", "16",
                "--snapshot-every", "50", "--name", "stream-smoke"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "streamed 120 computers offers" in out
        assert "exactly-once" in out

        # Second invocation over the same journal: recovery plus an
        # idempotent re-feed of the identical offer stream.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "recovered from journal: 120 records" in out

        from repro.runs import RunStore

        runs = [r for r in RunStore().list() if r.name == "stream-smoke"]
        assert len(runs) == 2
        assert all(r.manifest["kind"] == "stream" for r in runs)
        assert all(r.metrics["records"] == 120 for r in runs)


class TestSweep:
    def test_picks_best_candidate(self):
        ds = load_dataset("wdc_computers", size="small")
        texts = [r.text() for p in ds.all_pairs() for r in (p.record1, p.record2)]
        tok = WordPieceTokenizer(train_wordpiece(texts, vocab_size=400))
        cfg = BertConfig(vocab_size=len(tok.vocab), hidden_size=16,
                         num_layers=1, num_heads=2, intermediate_size=32,
                         max_position=96, dropout=0.0, attention_dropout=0.0)
        enc = PairEncoder(tok, max_length=96)
        train = enc.encode_many(ds.train, ds)
        valid = enc.encode_many(ds.valid, ds)

        def factory():
            bert = BertModel(cfg, np.random.default_rng(0))
            return SingleTaskMatcher(bert, cfg.hidden_size, np.random.default_rng(1))

        model, rate, scores = sweep_learning_rate(
            factory, train, valid, TrainConfig(epochs=2, seed=0),
            candidates=(1e-4, 1e-3),
        )
        assert rate in scores
        assert scores[rate] == max(scores.values())
        assert model is not None

    def test_empty_candidates_raises(self):
        with pytest.raises(ValueError):
            sweep_learning_rate(lambda: None, [], [], TrainConfig(), candidates=())


class TestProfileCommand:
    def test_profile_output(self, capsys):
        assert main(["profile", "--dataset", "bikes"]) == 0
        out = capsys.readouterr().out
        assert "separation" in out
        assert "bike_name" in out

    def test_profile_wdc_size(self, capsys):
        assert main(["profile", "--dataset", "wdc_shoes", "--size", "small"]) == 0
        assert "fill rates" in capsys.readouterr().out
