"""Statistics primitives: counters, EWMA, histograms, CIs, traffic."""

import math

import pytest
from hypothesis import assume, given, strategies as st

from repro.stats.ci import ratio_interval, t_critical, t_interval
from repro.stats.counters import (Counter, Ewma, Histogram, RunningStat,
                                  StatGroup, geometric_mean)
from repro.stats.traffic import (FIGURE5_ORDER, MsgClass, TrafficMeter,
                                 bytes_per_miss, normalize, stacked_bar)


# ---------------------------------------------------------------------------
# Counters
# ---------------------------------------------------------------------------

def test_counter_add_and_reset():
    counter = Counter("x")
    counter.add()
    counter.add(4)
    assert counter.value == 5
    counter.reset()
    assert counter.value == 0


def test_stat_group_creates_on_demand():
    group = StatGroup()
    group.add("misses", 3)
    group.add("misses")
    assert group.value("misses") == 4
    assert group.value("unknown") == 0
    assert group.as_dict() == {"misses": 4}


# ---------------------------------------------------------------------------
# RunningStat
# ---------------------------------------------------------------------------

def test_running_stat_mean_and_variance():
    stat = RunningStat()
    for value in [2.0, 4.0, 6.0]:
        stat.add(value)
    assert stat.mean == pytest.approx(4.0)
    assert stat.variance == pytest.approx(4.0)
    assert stat.min == 2.0 and stat.max == 6.0


def test_running_stat_merge_matches_single_stream():
    a, b, combined = RunningStat(), RunningStat(), RunningStat()
    data_a, data_b = [1.0, 5.0, 2.0], [7.0, 3.0]
    for value in data_a:
        a.add(value)
        combined.add(value)
    for value in data_b:
        b.add(value)
        combined.add(value)
    a.merge(b)
    assert a.count == combined.count
    assert a.mean == pytest.approx(combined.mean)
    assert a.variance == pytest.approx(combined.variance)


def test_running_stat_merge_with_empty():
    a = RunningStat()
    a.add(3.0)
    a.merge(RunningStat())
    assert a.count == 1
    b = RunningStat()
    b.merge(a)
    assert b.mean == 3.0


# ---------------------------------------------------------------------------
# EWMA
# ---------------------------------------------------------------------------

def test_ewma_initial_sample_sets_value():
    ewma = Ewma(alpha=0.5)
    assert ewma.value is None
    ewma.add(10)
    assert ewma.value == 10


def test_ewma_moves_toward_samples():
    ewma = Ewma(alpha=0.5, initial=0.0)
    ewma.add(10)
    assert ewma.value == 5.0
    ewma.add(10)
    assert ewma.value == 7.5


def test_ewma_alpha_validated():
    with pytest.raises(ValueError):
        Ewma(alpha=0.0)
    with pytest.raises(ValueError):
        Ewma(alpha=1.5)


# ---------------------------------------------------------------------------
# Histogram
# ---------------------------------------------------------------------------

def test_histogram_percentiles():
    hist = Histogram(bucket_width=10)
    for value in range(100):
        hist.add(value)
    assert hist.percentile(50) == pytest.approx(45.0, abs=10)
    assert hist.percentile(100) >= hist.percentile(50)


def test_histogram_overflow_bucket_reports_observed_max():
    """Regression: tail values clamp into the overflow bucket, whose
    midpoint used to silently bound every percentile by
    bucket_width * max_buckets (5120 cycles at the defaults)."""
    hist = Histogram(bucket_width=10, max_buckets=512)
    for value in range(100):
        hist.add(value)
    hist.add(1_000_000)  # pathological tail latency
    assert hist.percentile(100) == 1_000_000.0
    assert hist.percentile(99.5) == 1_000_000.0
    # In-range percentiles still use bucket midpoints.
    assert hist.percentile(50) == pytest.approx(45.0, abs=10)


def test_histogram_overflow_only_for_clamped_tail():
    """All mass in the overflow bucket: even p1 reports the max rather
    than a midpoint below every observed value."""
    hist = Histogram(bucket_width=1, max_buckets=4)
    hist.add(100)
    hist.add(200)
    assert hist.percentile(1) == 200.0
    assert hist.percentile(100) == 200.0


def test_histogram_validates_inputs():
    with pytest.raises(ValueError):
        Histogram(bucket_width=0)
    hist = Histogram()
    with pytest.raises(ValueError):
        hist.percentile(150)
    assert hist.percentile(50) == 0.0


# ---------------------------------------------------------------------------
# Geometric mean
# ---------------------------------------------------------------------------

def test_geometric_mean_basic():
    assert geometric_mean([1, 4]) == pytest.approx(2.0)


def test_geometric_mean_validates():
    with pytest.raises(ValueError):
        geometric_mean([])
    with pytest.raises(ValueError):
        geometric_mean([1.0, 0.0])


# ---------------------------------------------------------------------------
# Confidence intervals
# ---------------------------------------------------------------------------

def test_t_interval_single_sample_zero_width():
    ci = t_interval([5.0])
    assert ci.mean == 5.0
    assert ci.half_width == 0.0


def test_t_interval_contains_true_mean_for_tight_data():
    ci = t_interval([10.0, 10.2, 9.8, 10.1, 9.9])
    assert ci.low < 10.0 < ci.high
    assert ci.half_width < 0.5


def test_t_interval_requires_samples():
    with pytest.raises(ValueError):
        t_interval([])


def test_interval_overlap():
    a = t_interval([10.0, 10.1, 9.9])
    b = t_interval([10.05, 10.15, 9.95])
    c = t_interval([20.0, 20.1, 19.9])
    assert a.overlaps(b)
    assert not a.overlaps(c)


def test_ratio_interval_normalizes():
    ci = ratio_interval([10.0, 12.0], denominator_mean=10.0)
    assert ci.mean == pytest.approx(1.1)
    with pytest.raises(ValueError):
        ratio_interval([1.0], denominator_mean=0.0)


@given(st.lists(st.floats(min_value=1.0, max_value=1e6), min_size=2,
                max_size=30))
def test_t_interval_mean_matches_arithmetic_mean(samples):
    ci = t_interval(samples)
    assert ci.mean == pytest.approx(sum(samples) / len(samples))
    assert ci.half_width >= 0.0


@pytest.mark.parametrize("confidence", [1.5, 1.0, 0.0, -0.1, 95,
                                        float("nan")])
def test_bad_confidence_raises_pointed_error(confidence):
    # Regression: confidence=1.5 used to return a silent nan half-width.
    for call in (lambda: t_interval([1.0, 2.0, 4.0], confidence),
                 lambda: t_interval([1.0], confidence),
                 lambda: ratio_interval([1.0, 2.0], 1.0, confidence),
                 lambda: t_critical(3, confidence)):
        with pytest.raises(ValueError, match="strictly between 0 and 1"):
            call()


def test_t_critical_rejects_bad_df():
    with pytest.raises(ValueError, match="degrees of freedom"):
        t_critical(0, 0.95)


# ---------------------------------------------------------------------------
# Student-t quantile (stdlib), pinned against a reference implementation
# ---------------------------------------------------------------------------

#: Two-sided Student-t critical values t.ppf((1 + c) / 2, df), generated
#: once with scipy.stats (scipy 1.17.1) and pinned so the stdlib
#: quantile is checked without scipy installed.
PINNED_DFS = tuple(range(1, 65)) + (100, 1000, 10000)
PINNED_T_CRITICAL = {
    0.9: (
        6.313751514675037, 2.9199855803537242, 2.3533634348018233,
        2.1318467863266495, 2.0150483733330233, 1.9431802805153042,
        1.8945786050900062, 1.8595480375308973, 1.833112932656237,
        1.8124611228116756, 1.7958848187040433, 1.782287555649319,
        1.7709333959868725, 1.761310135774891, 1.753050355692572,
        1.7458836762762495, 1.7396067260750725, 1.7340636066175388,
        1.7291328115213682, 1.7247182429207866, 1.720742902811878,
        1.7171443743802424, 1.713871527747048, 1.710882079909428,
        1.7081407612518986, 1.7056179197592727, 1.7032884457221265,
        1.7011309342659313, 1.6991270265334972, 1.697260886593957,
        1.6955187825458649, 1.6938887483837102, 1.6923603090303438,
        1.6909242551868546, 1.6895724577802655, 1.6882977141168156,
        1.6870936195962631, 1.6859544601667371, 1.6848751217112248,
        1.683851013335652, 1.682878002132708, 1.6819523574675337,
        1.681070703202519, 1.6802299765721167, 1.6794273926523544,
        1.678660413556865, 1.6779267216418607, 1.6772241961243388,
        1.6765508926168535, 1.675905025163097, 1.67528495042491,
        1.6746891537260253, 1.6741162367031004, 1.6735649063521605,
        1.673033965289911, 1.6725223030755771, 1.6720288884609522,
        1.6715527624548587, 1.6710930321038946, 1.6706488649046363,
        1.6702194837737365, 1.6698041625120112, 1.6694022217068127,
        1.6690130250240895, 1.6602343260853392, 1.6463788172854643,
        1.645006018069243,
    ),
    0.95: (
        12.706204736174694, 4.302652729749462, 3.1824463052837078,
        2.7764451051977934, 2.5705818356363146, 2.4469118511449786,
        2.364624251592784, 2.306004135204166, 2.262157162798205,
        2.228138851986274, 2.200985160091639, 2.1788128296672284,
        2.1603686564627913, 2.144786687917804, 2.131449545559776,
        2.1199052992212546, 2.1098155778333156, 2.1009220402410382,
        2.0930240544083087, 2.085963447265864, 2.0796138447276795,
        2.0738730679040254, 2.0686576104190486, 2.0638985616280245,
        2.0595385527532972, 2.0555294386428735, 2.0518305164802846,
        2.0484071417952454, 2.045229642132703, 2.0422724563012378,
        2.039513446396408, 2.0369333434601016, 2.0345152974493383,
        2.0322445093177186, 2.030107928250343, 2.0280940009804502,
        2.0261924630291093, 2.0243941639119694, 2.022690920036761,
        2.021075390306273, 2.019540970441376, 2.0180817028184443,
        2.016692199227824, 2.0153675744437636, 2.014103388880846,
        2.012895598919429, 2.0117405137297655, 2.010634757624232,
        2.0095752371292392, 2.008559112100761, 2.007583770315836,
        2.006646805061688, 2.0057459953178687, 2.0048792881880564,
        2.0040447832891455, 2.003240718847872, 2.002465459291007,
        2.0017174841452356, 2.000995378088267, 2.0002978220142604,
        1.999623584994939, 1.9989715170333788, 1.998340542520741,
        1.997729654317693, 1.9839715185235518, 1.9623390808264083,
        1.960201239890626,
    ),
    0.99: (
        63.656741162871526, 9.924843200918287, 5.840909309733355,
        4.604094871349992, 4.032142983555228, 3.7074280213248065,
        3.4994832973504924, 3.355387331333395, 3.249835541592126,
        3.16927267261695, 3.1058065155392804, 3.0545395893929013,
        3.012275838716578, 2.9768427343708344, 2.946712883475238,
        2.9207816224251, 2.8982305196774183, 2.8784404727386077,
        2.8609346064649794, 2.8453397097861077, 2.83135955802305,
        2.8187560606001423, 2.807335683769999, 2.796939504774456,
        2.78743581367697, 2.778714533329683, 2.770682957122211,
        2.763262455461444, 2.756385903670605, 2.7499956535672254,
        2.744041919294269, 2.7384814820121877, 2.7332766423508357,
        2.7283943670707203, 2.7238055892080912, 2.7194846304500073,
        2.7154087215499882, 2.7115576019130825, 2.707913183517662,
        2.7044592674331622, 2.701181303578522, 2.6980661862199846,
        2.6951020791576745, 2.6922782656930218, 2.689585019374643,
        2.6870134922422158, 2.6845556178665246, 2.6822040269502154,
        2.679951973631552, 2.677793270940844, 2.6757222341106477,
        2.6737336306472197, 2.671822636241004, 2.6699847957348917,
        2.6682159884861933, 2.666512397556063, 2.664870482241971,
        2.6632869535376584, 2.6617587521629673, 2.6602830288550368,
        2.6588571266539263, 2.6574785649511563, 2.6561450250998613,
        2.6548543374110847, 2.6258905214380173, 2.580754698065951,
        2.5763210466685282,
    ),
}


@pytest.mark.parametrize("confidence", sorted(PINNED_T_CRITICAL))
def test_t_critical_matches_pinned_values(confidence):
    assert len(PINNED_T_CRITICAL[confidence]) == len(PINNED_DFS)
    worst = max(abs(t_critical(df, confidence) - expected) / expected
                for df, expected in zip(PINNED_DFS,
                                        PINNED_T_CRITICAL[confidence]))
    assert worst <= 1e-10


def test_t_interval_half_width_uses_the_quantile():
    samples = [10.0, 12.0, 11.0, 13.0]
    ci = t_interval(samples)
    sem = math.sqrt(sum((x - 11.5) ** 2 for x in samples) / 3 / 4)
    assert ci.half_width == pytest.approx(
        PINNED_T_CRITICAL[0.95][2] * sem, rel=1e-10)


def test_t_critical_is_memoized():
    t_critical(7, 0.95)
    hits = t_critical.cache_info().hits
    t_critical(7, 0.95)
    assert t_critical.cache_info().hits == hits + 1


@given(st.integers(min_value=1, max_value=10000),
       st.floats(min_value=0.01, max_value=0.999),
       st.floats(min_value=0.01, max_value=0.999))
def test_t_critical_rises_with_confidence(df, c1, c2):
    low, high = sorted((c1, c2))
    assume(high - low > 1e-9)
    assert 0.0 < t_critical(df, low) < t_critical(df, high)


@given(st.integers(min_value=1, max_value=10000),
       st.integers(min_value=1, max_value=10000),
       st.sampled_from([0.5, 0.9, 0.95, 0.99]))
def test_t_critical_falls_with_df(df1, df2, confidence):
    few, many = sorted((df1, df2))
    assume(few != many)
    assert t_critical(few, confidence) > t_critical(many, confidence)

# ---------------------------------------------------------------------------
# Traffic meter
# ---------------------------------------------------------------------------

def test_traffic_meter_records_by_class():
    meter = TrafficMeter()
    meter.record_traversal(MsgClass.DATA, 72)
    meter.record_traversal(MsgClass.DATA, 72)
    meter.record_traversal(MsgClass.ACK, 8)
    assert meter.bytes[MsgClass.DATA] == 144
    assert meter.link_traversals[MsgClass.ACK] == 1
    assert meter.total_bytes == 152


def test_traffic_grouping_matches_figure5():
    meter = TrafficMeter()
    meter.record_traversal(MsgClass.WRITEBACK, 72)
    meter.record_traversal(MsgClass.DEACTIVATION, 8)
    grouped = meter.bytes_by_group()
    assert grouped["Data"] == 72          # writebacks count as data traffic
    assert grouped["Ind. Req."] == 8      # deactivations fold into requests
    assert set(grouped) == set(FIGURE5_ORDER)


def test_traffic_meter_merge():
    a, b = TrafficMeter(), TrafficMeter()
    a.record_traversal(MsgClass.DATA, 10)
    b.record_traversal(MsgClass.DATA, 5)
    b.record_drop(8)
    a.merge(b)
    assert a.bytes[MsgClass.DATA] == 15
    assert a.dropped_messages == 1


def test_bytes_per_miss():
    meter = TrafficMeter()
    meter.record_traversal(MsgClass.DATA, 100)
    per_miss = bytes_per_miss(meter, misses=4)
    assert per_miss["Data"] == 25.0
    assert bytes_per_miss(meter, misses=0)["Data"] == 0.0


def test_normalize_traffic():
    normalized = normalize({"Data": 50.0, "Ack": 50.0}, baseline_total=100.0)
    assert normalized == {"Data": 0.5, "Ack": 0.5}
    with pytest.raises(ValueError):
        normalize({}, baseline_total=0.0)


def test_stacked_bar_renders():
    bar = stacked_bar({"Data": 30.0, "Ack": 10.0}, width=40)
    assert "D" in bar and "a" in bar
    assert stacked_bar({}) == "(no traffic)"
