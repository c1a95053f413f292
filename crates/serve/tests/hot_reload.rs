//! Hot reload under live load, and the kill-replica fault drill.
//!
//! The load-bearing assertion: while checkpoints are republished under
//! sustained traffic, EVERY reply must be bitwise identical to the
//! oracle of the published checkpoint its step stamp names — reloads
//! may change *when* the served function advances, never let a torn or
//! blended model answer. And none of it may fail a request: reloads
//! swap between batches, crashes respawn and re-send the batch in
//! hand.

use serve::{Backend, ServeClient, ServeConfig, Server, TrainPublisher};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const DIMS: [usize; 3] = [16, 32, 8];

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("samo-serve-reload-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn probe() -> Vec<f32> {
    (0..DIMS[0]).map(|i| (i as f32 * 0.37).sin()).collect()
}

#[test]
fn every_reply_under_reload_matches_the_published_oracle_for_its_step() {
    let dir = tmpdir("oracle");
    let mut publisher = TrainPublisher::new(&dir, &DIMS, 23).unwrap();
    let x = probe();
    // Oracle per published step, computed at publish time — before
    // retention prunes a superseded generation's file.
    let mut oracles: HashMap<u64, Vec<u32>> = HashMap::new();
    let publish = |publisher: &mut TrainPublisher, oracles: &mut HashMap<u64, Vec<u32>>| {
        let (step, path) = publisher.publish_after(2).unwrap();
        let out = publisher.oracle_outputs(&path, step, Backend::Dense, &x).unwrap();
        oracles.insert(step, out.iter().map(|v| v.to_bits()).collect());
        step
    };
    publish(&mut publisher, &mut oracles);
    let mut cfg = ServeConfig::new(&dir);
    cfg.reload_poll = Duration::from_millis(5);
    let server = Server::start(cfg).unwrap();
    let addr = server.addr();

    // Sustained load: 3 client threads hammer one fixed probe input
    // and record every (step, output) they see.
    let stop = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (0..3)
        .map(|_| {
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(addr).unwrap();
                let x = probe();
                let mut seen: Vec<(u64, Vec<f32>)> = Vec::new();
                let mut failures = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    match client.infer_deadline(&x, Duration::from_secs(10)) {
                        Ok(r) => seen.push((r.step, r.output)),
                        Err(_) => failures += 1,
                    }
                }
                (seen, failures)
            })
        })
        .collect();

    // Publish 3 more generations while the load runs, leaving time
    // under load on each generation.
    let mut last_step = 0;
    for _ in 0..3 {
        std::thread::sleep(Duration::from_millis(120));
        last_step = publish(&mut publisher, &mut oracles);
    }
    // Give the last generation time to land before stopping.
    let deadline = Instant::now() + Duration::from_secs(20);
    while server.stats().serving_step < last_step && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    std::thread::sleep(Duration::from_millis(50));
    stop.store(true, Ordering::Relaxed);
    let mut results = Vec::new();
    for w in workers {
        results.push(w.join().unwrap());
    }
    let stats = server.stop();

    let mut total = 0usize;
    let mut steps_served = std::collections::BTreeSet::new();
    for (seen, failures) in &results {
        assert_eq!(*failures, 0, "hot reload must not fail a single request");
        for (step, output) in seen {
            total += 1;
            steps_served.insert(*step);
            let oracle = oracles.get(step).unwrap_or_else(|| {
                panic!("reply stamped step {step}, which was never published")
            });
            let got: Vec<u32> = output.iter().map(|v| v.to_bits()).collect();
            assert_eq!(&got, oracle, "reply at step {step} is not the published model");
        }
    }
    assert!(total > 50, "load must actually run: {total} replies");
    assert!(steps_served.len() >= 2, "must observe the model advancing: {steps_served:?}");
    assert!(steps_served.contains(&last_step), "the final generation must be served");
    assert!(stats.reloads >= 3, "3 publishes must all reload: {}", stats.reloads);
    assert!(stats.last_blackout_ms > 0.0, "blackout must be measured");
    assert_eq!(stats.serving_step, last_step);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_replica_respawns_and_serving_continues() {
    let dir = tmpdir("crash");
    let mut publisher = TrainPublisher::new(&dir, &DIMS, 29).unwrap();
    let (step, path) = publisher.publish_after(2).unwrap();
    let mut cfg = ServeConfig::new(&dir);
    cfg.replicas = 2;
    let server = Server::start(cfg).unwrap();
    let mut client = ServeClient::connect(server.addr()).unwrap();
    let x = probe();
    let oracle: Vec<u32> = publisher
        .oracle_outputs(&path, step, Backend::Dense, &x)
        .unwrap()
        .iter()
        .map(|v| v.to_bits())
        .collect();

    for _ in 0..4 {
        client.infer(&x).unwrap();
    }
    // Kill both replicas (the drill is the server's own; no frame a
    // client can send reaches it).
    server.inject_replica_crash(0);
    server.inject_replica_crash(1);
    // Every subsequent request must still be answered correctly: the
    // dispatcher respawns dead replicas and re-sends the bounced batch.
    for _ in 0..20 {
        let reply = client.infer(&x).unwrap();
        let got: Vec<u32> = reply.output.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, oracle, "post-crash replies still match the oracle");
    }
    let stats = server.stop();
    assert!(stats.respawns >= 1, "the drill must actually respawn: {stats:?}");
    assert_eq!(stats.errors, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reload_after_crash_lands_on_the_respawned_replica_too() {
    let dir = tmpdir("crash-reload");
    let mut publisher = TrainPublisher::new(&dir, &DIMS, 31).unwrap();
    publisher.publish_after(1).unwrap();
    let mut cfg = ServeConfig::new(&dir);
    cfg.replicas = 2;
    cfg.reload_poll = Duration::from_millis(5);
    let server = Server::start(cfg).unwrap();
    let mut client = ServeClient::connect(server.addr()).unwrap();
    let x = probe();
    client.infer(&x).unwrap();
    server.inject_replica_crash(0);
    // Publish a new generation; the swap may hit the dead replica and
    // must respawn it onto the NEW model rather than losing the swap.
    let (step2, path2) = publisher.publish_after(2).unwrap();
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let reply = client.infer(&x).unwrap();
        if reply.step == step2 {
            let oracle: Vec<u32> = publisher
                .oracle_outputs(&path2, step2, Backend::Dense, &x)
                .unwrap()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            let got: Vec<u32> = reply.output.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, oracle);
            break;
        }
        assert!(Instant::now() < deadline, "new step never served after crash+reload");
    }
    // Drive enough requests that round-robin provably hits both
    // replicas (batches alternate), all at the new step.
    for _ in 0..10 {
        let reply = client.infer(&x).unwrap();
        assert_eq!(reply.step, step2, "no replica may keep serving the old step");
    }
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
