//! Every entry point runs the same coarse step over the same model maps.
//!
//! * A batch leaves its trained models in the devices' home shards, stamped
//!   with the live epoch: a single locate of a batch query then reuses them,
//!   until an ingest for the device makes its model stale.
//! * The degraded coarse-only locate (`locate_coarse`) decides exactly what
//!   the full locate's coarse step decides, and the model it trains is the
//!   one the next full locate of the same request reuses.
//!
//! Both run on the simulated campus workload of `tests/facade_equivalence.rs`
//! at one and three shards.

use locater::core::coarse::{CoarseLabel, CoarseMethod};
use locater::core::system::Location;
use locater::prelude::*;
use locater::sim::generated_workload;
use std::collections::BTreeMap;

const QUERIES: usize = 3_000;
const SHARDS: [usize; 2] = [1, 3];

fn campus_workload() -> (EventStore, Vec<LocateRequest>) {
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
    let requests = workload
        .queries
        .iter()
        .map(|q| LocateRequest::by_mac(&q.mac, q.t))
        .collect();
    (store, requests)
}

/// `true` for the methods that classify a gap with the device's model.
fn needs_model(method: CoarseMethod) -> bool {
    !matches!(
        method,
        CoarseMethod::CoveredByEvent | CoarseMethod::OutOfSpan
    )
}

/// The device's coarse-model reuse for one full locate, with its coarse
/// method checked against `expected`.
fn reused(
    service: &ShardedLocaterService,
    request: &LocateRequest,
    expected: CoarseMethod,
) -> bool {
    let response = service
        .locate(&request.clone().with_diagnostics())
        .expect("a batch-answered request resolves");
    let diagnostics = response.diagnostics.expect("diagnostics were requested");
    assert_eq!(diagnostics.coarse.method, expected, "{request:?}");
    diagnostics.coarse_model_reused
}

#[test]
fn batch_trained_models_are_reused_live_until_an_ingest() {
    let (store, requests) = campus_workload();
    let last_event = store.time_span().expect("non-empty campus").end;
    let ap = store.space().access_points()[0].name.clone();
    for shards in SHARDS {
        let service = ShardedLocaterService::new(store.clone(), LocaterConfig::default(), shards);
        let answers = service.locate_batch(&requests, 3);

        // Each device's last batch query that classified a gap: the model it
        // used is the last one the batch trained for the device.
        let mut last_gap: BTreeMap<DeviceId, (&LocateRequest, CoarseMethod)> = BTreeMap::new();
        for (request, answer) in requests.iter().zip(&answers) {
            let Ok(response) = answer else { continue };
            if needs_model(response.answer.coarse_method) {
                last_gap.insert(
                    response.answer.device,
                    (request, response.answer.coarse_method),
                );
            }
        }
        assert!(last_gap.len() > 1, "{shards} shard(s): too few devices");
        for (&device, &(request, method)) in &last_gap {
            assert!(
                reused(&service, request, method),
                "{shards} shard(s): device {device} retrained a batch-trained model"
            );
        }

        // An event past the end of the log keeps every query gap in place but
        // bumps the device's epoch: its model alone goes stale.
        let (&touched, &(request, _)) = last_gap.iter().next().expect("checked above");
        let mac = request.mac.as_deref().expect("requests are by MAC");
        service.ingest(mac, last_event + 3_600, &ap).unwrap();
        for (&device, &(request, method)) in &last_gap {
            assert_eq!(
                reused(&service, request, method),
                device != touched,
                "{shards} shard(s): device {device} after an ingest for {touched}"
            );
        }
    }
}

#[test]
fn coarse_only_locate_agrees_with_the_full_coarse_step() {
    let (store, requests) = campus_workload();
    for shards in SHARDS {
        let config = LocaterConfig::default();
        let degraded = ShardedLocaterService::new(store.clone(), config, shards);
        let full = ShardedLocaterService::new(store.clone(), config, shards);
        let mut trained_by_coarse_only = 0usize;
        for (idx, request) in requests.iter().enumerate() {
            let detailed = request.clone().with_diagnostics();
            let coarse_only = degraded.locate_coarse(request);
            let reference = full.locate(&detailed);
            let (coarse_only, reference) = match (coarse_only, reference) {
                (Ok(coarse_only), Ok(reference)) => (coarse_only, reference),
                (coarse_only, reference) => {
                    assert_eq!(coarse_only.err(), reference.err(), "query {idx}");
                    continue;
                }
            };
            let coarse = reference.diagnostics.as_ref().unwrap().coarse;
            let expected = match coarse.label {
                CoarseLabel::Outside => Location::Outside,
                CoarseLabel::Inside(region) => Location::Region(region),
            };
            let answer = &coarse_only.answer;
            assert_eq!(answer.location, expected, "{shards} shard(s), query {idx}");
            assert_eq!(answer.coarse_method, coarse.method, "query {idx}");
            assert_eq!(answer.confidence, coarse.confidence, "query {idx}");
            assert!(coarse_only.diagnostics.is_none());

            // The full locate after the degraded one reuses its model and
            // otherwise answers exactly like the reference service.
            let after = degraded.locate(&detailed).unwrap();
            let diagnostics = after.diagnostics.unwrap();
            if needs_model(coarse.method) {
                assert!(diagnostics.coarse_model_reused, "query {idx}");
            }
            let reference_diagnostics = reference.diagnostics.unwrap();
            trained_by_coarse_only += usize::from(
                needs_model(coarse.method) && !reference_diagnostics.coarse_model_reused,
            );
            assert_eq!(after.answer, reference.answer, "query {idx}");
            assert_eq!(diagnostics.coarse, reference_diagnostics.coarse);
            assert_eq!(diagnostics.fine, reference_diagnostics.fine);
        }
        assert!(
            trained_by_coarse_only > 0,
            "{shards} shard(s): no model trained"
        );
    }
}
