//! The frozen `Locater` facade must answer exactly like the one-shard live
//! `LocaterService` over the same store: query by query (answer, coarse and
//! fine outcomes, model reuse, cache warmth) and through `locate_batch`, with
//! the affinity cache holding the same edges and samples afterwards.
//!
//! Both types run one locate orchestration; this suite pins that the facade's
//! never-bumped epoch table and the service's one-shard routing make the same
//! decisions on a simulated campus workload.

use locater::prelude::*;
use locater::sim::generated_workload;

const QUERIES: usize = 3_000;

fn campus_workload() -> (EventStore, Vec<Query>) {
    let config = CampusConfig {
        weeks: 4,
        population: 48,
        visitors: 12,
        monitored: 12,
        access_points: 8,
        ..CampusConfig::default()
    };
    let output = Simulator::new(0xFACADE).run_campus(&config);
    let mut store = output.build_store();
    store.estimate_deltas();
    let workload = generated_workload(&output, QUERIES, 0xFACADE);
    let queries = workload
        .queries
        .iter()
        .map(|q| Query::by_mac(&q.mac, q.t))
        .collect();
    (store, queries)
}

/// Runs the single-query trace and then one batch on both entry points,
/// asserting equality throughout. Returns `(model reuses, warm-cache queries)`
/// counted over the single-query trace.
fn assert_facade_matches_service(
    store: &EventStore,
    queries: &[Query],
    config: LocaterConfig,
) -> (usize, usize) {
    let locater = Locater::new(store.clone(), config);
    let service = LocaterService::new(store.clone(), config);
    let mut reused = 0usize;
    let mut warm = 0usize;

    for (idx, query) in queries.iter().enumerate() {
        let frozen = locater.locate_detailed(query);
        let request = LocateRequest::from_query(query).with_diagnostics();
        let live = service.locate(&request);
        let ((answer, frozen_diag), response) = match (frozen, live) {
            (Ok(frozen), Ok(live)) => (frozen, live),
            (frozen, live) => {
                assert_eq!(frozen.err(), live.err(), "query {idx}: outcome diverged");
                continue;
            }
        };
        let live_diag = response.diagnostics.expect("diagnostics were requested");
        assert_eq!(answer, response.answer, "query {idx}: answer diverged");
        assert_eq!(frozen_diag.coarse, live_diag.coarse, "query {idx}: coarse");
        assert_eq!(frozen_diag.fine, live_diag.fine, "query {idx}: fine");
        assert_eq!(
            frozen_diag.coarse_model_reused, live_diag.coarse_model_reused,
            "query {idx}: model reuse"
        );
        assert_eq!(
            frozen_diag.cache_warm, live_diag.cache_warm,
            "query {idx}: cache warmth"
        );
        reused += usize::from(frozen_diag.coarse_model_reused);
        warm += usize::from(frozen_diag.cache_warm);
    }
    assert_eq!(
        locater.cache_stats(),
        service.cache_stats(),
        "cache diverged after the single-query trace"
    );

    let requests: Vec<LocateRequest> = queries.iter().map(LocateRequest::from_query).collect();
    let frozen = locater.locate_batch(queries, 3);
    let live = service.locate_batch(&requests, 3);
    assert_eq!(frozen.len(), live.len());
    for (idx, (frozen, live)) in frozen.into_iter().zip(live).enumerate() {
        assert_eq!(
            frozen,
            live.map(|response| response.answer),
            "batch query {idx}: outcome diverged"
        );
    }
    assert_eq!(
        locater.cache_stats(),
        service.cache_stats(),
        "cache diverged after the batch"
    );
    (reused, warm)
}

#[test]
fn facade_matches_one_shard_service_on_campus_workload() {
    let (store, queries) = campus_workload();
    assert_eq!(queries.len(), QUERIES);

    let configs = [
        ("default", LocaterConfig::default()),
        (
            "dependent",
            LocaterConfig::default().with_fine_mode(FineMode::Dependent),
        ),
        (
            "dependent, no cache",
            LocaterConfig::default()
                .with_fine_mode(FineMode::Dependent)
                .with_cache(CacheMode::Disabled),
        ),
    ];
    for (name, config) in configs {
        let (reused, warm) = assert_facade_matches_service(&store, &queries, config);
        assert!(reused > 0, "{name}: no coarse model was ever reused");
        if config.cache == CacheMode::Enabled {
            assert!(warm > 0, "{name}: the affinity cache never got warm");
        } else {
            assert_eq!(warm, 0, "{name}: a disabled cache reported warmth");
        }
    }
}
