//! The exposition is a contract: `golden/metrics.txt` was rendered by the
//! hand-written `Metrics` struct this catalogue replaced (the commit
//! before the refactor), from the scripted observations below and
//! assembled the way the `GET /metrics` arm assembles a scrape minus the
//! process-global registry block — owned series, fault and brownout
//! gauges, shadow section. The catalogue must reproduce it byte for byte:
//! names, labels, order, number formatting. The two resident-bytes
//! gauges came later and were added to the file by hand, with the
//! scripted values below.

use unimatch_serve::metrics::{Family, Metrics, Section};

#[test]
fn scripted_observations_render_the_parent_bytes() {
    let m = Metrics::new();
    let times = |n: u64, series| (0..n).for_each(|_| m.inc(series));

    for (route, n) in [5, 4, 3, 2, 1].into_iter().enumerate() {
        times(n, Family::Requests.at(route));
    }
    times(3, Family::Responses.with("4xx")); // 400, 404, 429
    times(3, Family::Responses.with("5xx")); // 500, 503, 503
    for us in [40, 50, 51, 900, 12_000, 250_000] {
        m.observe(Family::RequestLatency.with("recommend"), us);
    }
    m.observe(Family::RequestLatency.with("target"), 123);
    for size in [1, 1, 3, 64, 200] {
        m.observe(Family::BatchSize.with("recommend"), size);
    }
    m.observe(Family::BatchSize.with("target"), 7);
    times(2, Family::Reloads.at(0));
    times(1, Family::ConnectionsRejected.at(0));
    times(1, Family::RequestsShed.with("queue_full"));
    times(2, Family::RequestsShed.with("deadline"));
    times(1, Family::RequestsShed.with("brownout"));
    for shard in [0, 1, 1, 15, 16, 16] {
        m.inc(Family::ShardErrors.at(shard));
    }
    times(1, Family::DegradedResponses.with("shard"));
    times(2, Family::DegradedResponses.with("brownout"));
    m.observe_service(1000); // not exposed
    for (route, overlap_milli, delta_micro) in
        [("recommend", 1000, 0), ("target", 500, 250_000), ("target", 250, 125_000)]
    {
        m.inc(Family::ShadowPairs.with(route));
        m.add(Family::ShadowOverlapSumMilli.at(0), overlap_milli);
        m.add(Family::ShadowScoreDeltaSumMicro.at(0), delta_micro);
    }
    times(1, Family::ShadowDropped.at(0));
    m.observe(Family::ShadowLag.at(0), 120);
    m.observe(Family::ShadowLag.at(0), 70_000);
    m.observe(Family::ShadowExec.at(0), 450);

    let mut text = m.render(Section::Owned, &[(Family::ModelVersion, 7.0)]);
    text.push_str(&m.render(
        Section::Process,
        &[
            (Family::ResidentBytes, 52_428_800.0),
            (Family::PeakResidentBytes, 104_857_600.0),
            (Family::FaultsFired, 2.0),
            (Family::BrownoutLevel, 1.0),
        ],
    ));
    text.push_str(&m.render(
        Section::Shadow,
        &[(Family::ShadowSampleRate, 0.25), (Family::ShadowModelVersion, 3.0)],
    ));
    let golden = include_str!("golden/metrics.txt");
    for (n, (got, want)) in text.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "line {}", n + 1);
    }
    assert_eq!(text, golden);
}
