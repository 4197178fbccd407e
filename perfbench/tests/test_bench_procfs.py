import os
import subprocess
import sys
import time

from harness import procfs

BURN = "import time\nt = time.process_time()\nwhile time.process_time() - t < {s}: pass\n"


def test_live_child_cpu_is_counted():
    before = procfs.tree_cpu()
    p = subprocess.Popen([sys.executable, "-c", BURN.format(s=0.6) + "time.sleep(30)"])
    try:
        deadline = time.monotonic() + 20
        while procfs.tree_cpu()["python"] - before["python"] < 0.5:
            assert time.monotonic() < deadline, "child CPU never showed up"
            time.sleep(0.05)
        assert p.pid in procfs.descendants(os.getpid())
    finally:
        p.kill()
        p.wait(timeout=10)


def test_reaped_child_cpu_moves_to_parent():
    before = procfs.tree_cpu()
    subprocess.run([sys.executable, "-c", BURN.format(s=0.6)], check=True, timeout=30)
    after = procfs.tree_cpu()
    # reaped: its CPU now sits in this process's cutime/cstime
    assert after["driver"] - before["driver"] >= 0.5
    assert after["total"] - before["total"] >= 0.5


def test_peak_rss_and_meminfo():
    assert procfs.peak_rss_mb([os.getpid()]) > 1.0
    assert procfs.peak_rss_mb([]) == 0.0
    assert procfs.mem_total_kb() > 0


def test_wait_gone_kills_what_is_left():
    p = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    killed = procfs.wait_gone([p.pid], timeout=0.2)
    p.wait(timeout=10)
    assert killed == [p.pid]
    assert procfs.wait_gone([p.pid], timeout=1) == []
