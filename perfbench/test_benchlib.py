"""Tests for the benchmark's own arithmetic. Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import struct
import unittest

import benchlib


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_by_hand(self):
        # Ranks ceil(p/100 * 5): p5 -> 1, p30 -> 2, p40 -> 2, p50 -> 3,
        # p100 -> 5.
        values = [50, 15, 40, 35, 20]
        self.assertEqual(benchlib.percentile(values, 5), 15)
        self.assertEqual(benchlib.percentile(values, 30), 20)
        self.assertEqual(benchlib.percentile(values, 40), 20)
        self.assertEqual(benchlib.percentile(values, 50), 35)
        self.assertEqual(benchlib.percentile(values, 100), 50)

    def test_tail_ranks_of_a_thousand(self):
        values = list(range(1000, 0, -1))  # 1..1000, unsorted
        self.assertEqual(benchlib.percentile(values, 50), 500)
        self.assertEqual(benchlib.percentile(values, 90), 900)
        self.assertEqual(benchlib.percentile(values, 99), 990)
        self.assertEqual(benchlib.percentile(values, 99.9), 999)
        self.assertEqual(benchlib.beyond(values, 990), 10)

    def test_zero_percentile_is_the_minimum(self):
        self.assertEqual(benchlib.percentile([3, 1, 2], 0), 1)

    def test_empty_sample_raises(self):
        with self.assertRaises(ValueError):
            benchlib.percentile([], 50)


class QuartileTest(unittest.TestCase):
    def test_median_even_and_odd(self):
        self.assertEqual(benchlib.median([4, 1, 3, 2]), 2.5)
        self.assertEqual(benchlib.median([5, 1, 3]), 3)

    def test_quartiles_match_statistics_quantiles(self):
        # Exclusive method on 1..10: positions 2.75, 5.5 and 8.25.
        q1, q2, q3 = benchlib.quartiles(list(range(1, 11)))
        self.assertAlmostEqual(q1, 2.75)
        self.assertAlmostEqual(q2, 5.5)
        self.assertAlmostEqual(q3, 8.25)
        self.assertAlmostEqual(benchlib.spread(list(range(1, 11))), 1.0)

    def test_constant_sample_has_no_spread(self):
        self.assertEqual(benchlib.spread([7.0] * 10), 0.0)


class ProcParsingTest(unittest.TestCase):
    STAT0 = ("cpu  100 5 50 1000 10 1 2 30 0 0\n"
             "cpu0 50 2 25 500 5 0 1 15 0 0\nintr 1 2 3\n")
    STAT1 = ("cpu  200 5 90 1100 10 1 2 50 0 0\n"
             "cpu0 90 2 45 550 5 0 1 25 0 0\nintr 1 2 3\n")

    def test_cpu_line_sums_user_through_steal(self):
        self.assertEqual(benchlib.cpu_line(self.STAT0), (1198, 30))

    def test_steal_share_of_a_window(self):
        # Total grows by 1458 - 1198 = 260 jiffies, steal by 20.
        self.assertAlmostEqual(
            benchlib.steal_share(self.STAT0, self.STAT1), 20 / 260)

    def test_steal_share_of_an_empty_window_is_zero(self):
        self.assertEqual(benchlib.steal_share(self.STAT0, self.STAT0), 0.0)

    def test_process_cpu_ticks_survive_odd_command_names(self):
        fields = ["S", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10",
                  "1234", "567", "0", "0"]
        text = "4242 (hosr serve) (x)) " + " ".join(fields) + " 20 0\n"
        self.assertEqual(benchlib.process_cpu_ticks(text), 1234 + 567)

    def test_vm_hwm(self):
        status = "Name:\thosr_serve\nVmPeak:\t  90000 kB\nVmHWM:\t   22428 kB\n"
        self.assertEqual(benchlib.vm_hwm_kib(status), 22428)
        with self.assertRaises(ValueError):
            benchlib.vm_hwm_kib("Name:\tx\n")


def span(name, parent, begin, end, unit=0):
    return benchlib.Span(name, parent, unit, begin, end)


class SpanTest(unittest.TestCase):
    def test_self_time_subtracts_the_union_of_children(self):
        spans = [
            span("root", -1, 0, 100),
            span("a", 0, 10, 30),
            span("b", 0, 20, 50),     # overlaps a: union is 10..50
            span("c", 0, 90, 120),    # only 90..100 lies inside the root
            span("leaf", 1, 12, 18),  # a grandchild counts against a only
        ]
        self.assertEqual(benchlib.self_times(spans), [50, 14, 30, 30, 6])

    def test_span_without_children_keeps_its_duration(self):
        self.assertEqual(benchlib.self_times([span("x", -1, 5, 9)]), [4])

    def test_coverage_over_several_windows(self):
        spans = [span("layer", -1, 0, 10), span("layer", -1, 20, 25),
                 span("other", -1, 0, 10), span("layer", -1, 40, 50)]
        # Windows 0..20 and 20..30 hold 15 ns of layer spans out of 30.
        self.assertAlmostEqual(
            benchlib.coverage(spans, ("layer",), [0, 20, 20, 30]), 0.5)

    def test_binary_span_records_round_trip(self):
        data = (benchlib.SPAN_RECORD.pack(1, 0, -1, 7, 100, 250) +
                benchlib.SPAN_RECORD.pack(0, 0, 0, 7, 110, 120))
        spans = benchlib.read_spans(data, ["child", "root"])
        self.assertEqual(spans[0], span("root", -1, 100, 250, unit=7))
        self.assertEqual(spans[1], span("child", 0, 110, 120, unit=7))

    def test_latencies_decode(self):
        data = struct.pack("<3q", 5, 7, 11)
        self.assertEqual(list(benchlib.read_latencies(data)), [5, 7, 11])


def proc(wall_s, ticks, total, steal):
    fields = ["S"] + ["0"] * 10 + [str(ticks), "0"]
    return {"wall_ns": int(wall_s * 1e9),
            "pid_stat": "7 (perfbench) " + " ".join(fields),
            "stat": "cpu  %d 0 0 0 0 0 0 %d\n" % (total - steal, steal)}


class WindowTest(unittest.TestCase):
    def test_even_split(self):
        self.assertEqual(benchlib.even_split(10, 4), [2, 3, 2, 3])
        self.assertEqual(sum(benchlib.even_split(625000, 20)), 625000)

    def test_window_slices(self):
        samples = [proc(0.0, 0, 1000, 0), proc(2.0, 300, 1800, 80),
                   proc(3.0, 500, 2200, 80)]
        slices = benchlib.window_slices(samples, [100, 60], clk_tck=100)
        self.assertEqual(len(slices), 2)
        self.assertAlmostEqual(slices[0]["seconds"], 2.0)
        self.assertAlmostEqual(slices[0]["cpu_s"], 3.0)
        self.assertAlmostEqual(slices[0]["steal"], 0.1)
        self.assertAlmostEqual(slices[1]["cpu_s"], 2.0)
        self.assertAlmostEqual(slices[1]["steal"], 0.0)

    def test_drift(self):
        def sl(work, seconds):
            return {"work": work, "seconds": seconds}
        # Slices 0-1 against 3-4 (the middle one of five is in neither):
        # 20 in 3 s, then 20 in 4.5 s.
        slices = [sl(10, 1.0), sl(10, 2.0), sl(10, 1.25), sl(10, 4.0),
                  sl(10, 0.5)]
        self.assertAlmostEqual(benchlib.drift(slices), (20 / 4.5) / (20 / 3.0))
        self.assertAlmostEqual(benchlib.drift([sl(5, 1.0), sl(5, 1.0)]), 1.0)


class InputTest(unittest.TestCase):
    def test_streams_are_a_function_of_the_seed(self):
        for make in (lambda s: benchlib.uniform_stream(1000, 500, s),
                     lambda s: benchlib.zipf_stream(1000, 500, 0.9, s)):
            self.assertEqual(benchlib.stream_bytes(make(3)),
                             benchlib.stream_bytes(make(3)))
            self.assertNotEqual(make(3), make(4))
            self.assertTrue(all(0 <= u < 1000 for u in make(3)))

    def test_zipf_stream_is_skewed(self):
        users = benchlib.zipf_stream(1000, 20000, 0.9, 1)
        top = max(users.count(u) for u in set(users))
        self.assertGreater(top / len(users), 0.05)  # uniform would be 0.001

    def test_digest_separates_chunk_boundaries(self):
        self.assertNotEqual(benchlib.digest([b"ab", b"c"]),
                            benchlib.digest([b"a", b"bc"]))
        self.assertEqual(benchlib.digest([b"x"]), benchlib.digest([b"x"]))


if __name__ == "__main__":
    unittest.main()
