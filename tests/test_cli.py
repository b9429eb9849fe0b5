"""Tests for the command-line front ends."""

import pytest

from repro.cli import artwork_main, eureka_main, pablo_main, quinto_main
from repro.formats.escher import save_escher
from repro.formats.netlist_files import save_network_files
from repro.inspect import inspect_main
from repro.obs import get_tracer, set_tracer
from repro.obs.runlog import RunLog
from repro.workloads.examples import example1_string


@pytest.fixture
def network_files(tmp_path):
    net = example1_string()
    paths = save_network_files(net, tmp_path)
    return paths


@pytest.fixture
def runlog(tmp_path):
    """A run registry file.  ``--runlog`` installs an enabled global
    tracer, so the one in place before the test comes back after it."""
    previous = get_tracer()
    yield str(tmp_path / "runs.jsonl")
    set_tracer(previous)


def _net_args(paths):
    return [str(paths["netlist"]), str(paths["call"]), str(paths["io"])]


class TestPablo:
    def test_places_and_writes_escher(self, tmp_path, network_files, capsys):
        out = tmp_path / "placed.es"
        rc = pablo_main(
            _net_args(network_files) + ["-p", "7", "-b", "7", "-o", str(out)]
        )
        assert rc == 0
        assert out.exists()
        assert "1 partitions / 1 boxes" in capsys.readouterr().out


class TestEureka:
    def test_routes_placed_diagram(self, tmp_path, network_files, capsys):
        placed = tmp_path / "placed.es"
        pablo_main(_net_args(network_files) + ["-p", "7", "-b", "7", "-o", str(placed)])
        routed = tmp_path / "routed.es"
        rc = eureka_main(
            [str(placed)] + _net_args(network_files) + ["-o", str(routed)]
        )
        assert rc == 0
        assert routed.exists()
        assert "nets routed: 6/6" in capsys.readouterr().out

    def test_runlog_record_is_explainable(self, tmp_path, network_files, runlog, capsys):
        placed = tmp_path / "placed.es"
        pablo_main(_net_args(network_files) + ["-p", "7", "-b", "7", "-o", str(placed)])
        argv = [str(placed)] + _net_args(network_files) + ["--runlog", runlog]
        assert eureka_main(argv + ["-o", str(tmp_path / "routed.es")]) == 0
        [record] = RunLog(runlog).load()
        assert record.kind == "eureka" and record.extra["search"]["nets"]
        assert inspect_main(["explain", record.run_id, "--runlog", runlog]) == 0
        assert "search effort by net" in capsys.readouterr().out

    def test_runlog_failures_carry_certificates(
        self, tmp_path, network_files, runlog, corridor_diagram, monkeypatch
    ):
        # ``a`` stays unroutable; its record says how that was proven.  The
        # corridor's walls are modules without terminals, which a net-list
        # file cannot declare, so its network stands in for the loaded one.
        import repro.cli as cli_mod

        diagram = corridor_diagram(b_pin_in_corridor=True)
        monkeypatch.setattr(cli_mod, "_load_network", lambda args: diagram.network)
        save_escher(diagram, tmp_path / "placed.es")
        rc = eureka_main(
            [str(tmp_path / "placed.es")]
            + _net_args(network_files)
            + ["--runlog", runlog, "-o", str(tmp_path / "r.es")]
        )
        assert rc == 1
        [record] = RunLog(runlog).load()
        assert record.failures == {
            "a": {"reason": "retry_exhausted", "unconnected_pins": 2, "certificate": "field"}
        }

    def test_runlog_restores_the_tracer(self, tmp_path, network_files, runlog):
        # ``--runlog`` traces the run on a fresh tracer and then puts back
        # the one it replaced, so an in-process call leaves tracing as it
        # found it.
        placed = tmp_path / "placed.es"
        pablo_main(_net_args(network_files) + ["-p", "7", "-b", "7", "-o", str(placed)])
        before = get_tracer()
        argv = [str(placed)] + _net_args(network_files) + ["--runlog", runlog]
        assert eureka_main(argv + ["-o", str(tmp_path / "routed.es")]) == 0
        assert get_tracer() is before
        [record] = RunLog(runlog).load()
        assert record.kind == "eureka"

    def test_swap_and_border_flags_accepted(self, tmp_path, network_files):
        placed = tmp_path / "placed.es"
        pablo_main(_net_args(network_files) + ["-p", "7", "-b", "7", "-o", str(placed)])
        rc = eureka_main(
            [str(placed)]
            + _net_args(network_files)
            + ["-s", "-u", "-d", "--margin", "8", "-o", str(tmp_path / "r.es")]
        )
        assert rc == 0


class TestQuinto:
    def test_adds_template(self, tmp_path, capsys):
        desc = tmp_path / "latch.desc"
        desc.write_text("module latch 40 30\nin d 0 10\nout q 40 10\n")
        lib_dir = tmp_path / "lib"
        rc = quinto_main([str(desc), "--library", str(lib_dir)])
        assert rc == 0
        assert (lib_dir / "latch.mod").exists()
        assert "latch" in capsys.readouterr().out

    def test_library_usable_after_quinto(self, tmp_path):
        desc = tmp_path / "latch.desc"
        desc.write_text("module latch 40 30\nin d 0 10\nout q 40 10\n")
        lib_dir = tmp_path / "lib"
        quinto_main([str(desc), "--library", str(lib_dir)])
        from repro.formats.library import ModuleLibrary

        lib = ModuleLibrary.load(lib_dir)
        assert "latch" in lib


class TestErrorHandling:
    """Load/validation problems exit 2 with a message, not a traceback."""

    def test_missing_network_files_exit_2(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.net")
        for main in (pablo_main, artwork_main):
            rc = main([missing, missing])
            assert rc == 2
            assert "error:" in capsys.readouterr().err

    def test_eureka_bad_escher_exit_2(self, tmp_path, network_files, capsys):
        bad = tmp_path / "bad.es"
        bad.write_text("this is not an escher file")
        rc = eureka_main([str(bad)] + _net_args(network_files))
        assert rc == 2
        assert "magic" in capsys.readouterr().err

    def test_quinto_missing_description_exit_2(self, tmp_path, capsys):
        rc = quinto_main([str(tmp_path / "absent.desc")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_version_flag_on_every_command(self, capsys):
        from repro import __version__

        for main in (pablo_main, eureka_main, quinto_main, artwork_main):
            with pytest.raises(SystemExit) as exc:
                main(["--version"])
            assert exc.value.code == 0
            assert __version__ in capsys.readouterr().out


class TestArtwork:
    def test_full_pipeline(self, tmp_path, network_files, capsys):
        svg = tmp_path / "fig.svg"
        es = tmp_path / "fig.es"
        rc = artwork_main(
            _net_args(network_files)
            + ["-p", "7", "-b", "7", "-o", str(svg), "--escher", str(es)]
        )
        assert rc == 0
        assert svg.read_text().startswith("<svg")
        assert es.exists()
        out = capsys.readouterr().out
        assert "nets routed: 6/6" in out
