from repro.common.units import (
    Gbps,
    GiB,
    KiB,
    MiB,
    fmt_duration,
)


def test_binary_prefixes_are_powers_of_two():
    assert KiB == 1024
    assert MiB == 1024**2
    assert GiB == 1024**3


def test_network_rates_are_bytes_per_second():
    # 1 Gb/s == 125 MB/s
    assert Gbps == 125_000_000


def test_fmt_duration_scales():
    assert fmt_duration(0.0000005) == "0.5 us"
    assert fmt_duration(0.005) == "5.0 ms"
    assert fmt_duration(3.2) == "3.20 s"
    assert fmt_duration(600) == "10.0 min"


def test_fmt_duration_negative():
    assert fmt_duration(-2.0) == "-2.00 s"
