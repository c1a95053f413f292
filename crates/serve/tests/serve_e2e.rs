//! End-to-end serving over a real loopback socket: the serving
//! invariant (replies bitwise equal to a fresh checkpoint load on
//! every backend), request coalescing, protocol error handling, the
//! clean-shutdown handshake, and a client that stops reading.

use comms::tcp::framing;
use serve::{
    protocol, Backend, BatchPolicy, LoadGenConfig, ServeClient, ServeConfig, ServeError, Server,
    TrainPublisher,
};
use std::io::Write;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const DIMS: [usize; 3] = [16, 32, 8];

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("samo-serve-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn probe(seed: u64) -> Vec<f32> {
    (0..DIMS[0])
        .map(|i| ((i as u64 + 1).wrapping_mul(seed.wrapping_mul(2) + 1) % 997) as f32 / 997.0 - 0.5)
        .collect()
}

#[test]
fn replies_match_a_fresh_load_oracle_bitwise_on_every_backend() {
    let dir = tmpdir("oracle");
    let mut publisher = TrainPublisher::new(&dir, &DIMS, 7).unwrap();
    let (step, path) = publisher.publish_after(3).unwrap();
    for backend in Backend::ALL {
        let mut cfg = ServeConfig::new(&dir);
        cfg.backend = backend;
        let server = Server::start(cfg).unwrap();
        let mut client = ServeClient::connect(server.addr()).unwrap();
        for seed in 0..4u64 {
            let x = probe(seed);
            let want = publisher.oracle_outputs(&path, step, backend, &x).unwrap();
            let reply = client.infer(&x).unwrap();
            assert_eq!(reply.step, step, "{backend}: reply carries the serving step");
            let got: Vec<u32> = reply.output.iter().map(|v| v.to_bits()).collect();
            let oracle: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, oracle, "{backend}: served output must be bitwise the oracle");
        }
        server.stop();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_requests_coalesce_into_batches() {
    let dir = tmpdir("batching");
    let mut publisher = TrainPublisher::new(&dir, &DIMS, 11).unwrap();
    publisher.publish_after(1).unwrap();
    let mut cfg = ServeConfig::new(&dir);
    cfg.replicas = 1;
    cfg.policy = BatchPolicy { max_batch: 16, max_wait: Duration::from_millis(2) };
    let server = Server::start(cfg).unwrap();
    let mut lg = LoadGenConfig::new(server.addr().to_string(), DIMS[0]);
    lg.clients = 12;
    lg.duration = Duration::from_millis(400);
    let report = serve::loadgen::run(&lg).unwrap();
    let stats = server.stop();
    assert_eq!(report.failed(), 0, "no request may fail: {report:?}");
    assert!(report.ok > 50, "closed loop must complete real work: {report:?}");
    assert_eq!(stats.requests, report.ok, "server and clients agree on the count");
    assert!(
        stats.batches < stats.requests,
        "12 closed-loop clients must coalesce: {} batches for {} requests",
        stats.batches,
        stats.requests
    );
    assert!(
        stats.mean_batch_fill > 1.5,
        "mean fill {:.2} shows no coalescing",
        stats.mean_batch_fill
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wrong_feature_count_gets_an_error_reply_and_the_connection_survives() {
    let dir = tmpdir("shape");
    let mut publisher = TrainPublisher::new(&dir, &DIMS, 13).unwrap();
    publisher.publish_after(1).unwrap();
    let server = Server::start(ServeConfig::new(&dir)).unwrap();
    let mut client = ServeClient::connect(server.addr()).unwrap();
    match client.infer(&vec![1.0; DIMS[0] + 3]) {
        Err(ServeError::Server(text)) => {
            assert!(text.contains("features"), "error names the defect: {text}")
        }
        other => panic!("expected a server error, got {other:?}"),
    }
    // The same connection still serves well-formed requests.
    let reply = client.infer(&probe(1)).unwrap();
    assert_eq!(reply.output.len(), DIMS[2]);
    let stats = server.stop();
    assert_eq!(stats.errors, 1);
    assert_eq!(stats.responses, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ping_and_clean_shutdown_handshake() {
    let dir = tmpdir("shutdown");
    let mut publisher = TrainPublisher::new(&dir, &DIMS, 17).unwrap();
    publisher.publish_after(1).unwrap();
    let server = Server::start(ServeConfig::new(&dir)).unwrap();
    let mut client = ServeClient::connect(server.addr()).unwrap();
    client.ping(Duration::from_secs(5)).unwrap();
    assert!(!server.shutdown_requested());
    client.shutdown_server(Duration::from_secs(5)).unwrap();
    assert!(server.wait_shutdown(Duration::from_secs(5)), "shutdown flag must flip");
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn starting_without_a_published_checkpoint_is_an_error() {
    let dir = tmpdir("nopublish");
    std::fs::create_dir_all(&dir).unwrap();
    let err = match Server::start(ServeConfig::new(&dir)) {
        Err(e) => e,
        Ok(server) => {
            server.stop();
            panic!("start must fail without a published checkpoint");
        }
    };
    assert!(err.contains("no published checkpoint"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_client_that_never_reads_cannot_wedge_the_replica() {
    // One replica, 16 KB replies. Client A floods requests over a raw
    // socket and never reads: its receive buffer and the server's send
    // buffer fill after a few MB, and the replica's next reply to A
    // cannot be written. Without a write deadline that is the end of
    // the server — its only replica parked in `write`, every other
    // client starved, `stop` unable to join.
    const WIDE: [usize; 3] = [16, 32, 4096];
    const FLOOD: u64 = 600;
    let dir = tmpdir("slow-reader");
    let mut publisher = TrainPublisher::new(&dir, &WIDE, 19).unwrap();
    publisher.publish_after(1).unwrap();
    let mut cfg = ServeConfig::new(&dir);
    cfg.replicas = 1;
    let server = Server::start(cfg).unwrap();
    let x = probe(5);

    let mut a = std::net::TcpStream::connect(server.addr()).unwrap();
    for id in 1..=FLOOD {
        a.write_all(&framing::encode(&protocol::request(id, x.clone()))).unwrap();
    }
    let mut b = ServeClient::connect(server.addr()).unwrap();
    let t0 = Instant::now();
    let reply = b.infer_deadline(&x, Duration::from_secs(3));
    let waited = t0.elapsed();
    assert!(reply.is_ok(), "B starved behind A for {waited:?}: {reply:?}");
    assert_eq!(reply.unwrap().output.len(), WIDE[2]);

    let t0 = Instant::now();
    let stats = server.stop();
    assert!(t0.elapsed() < Duration::from_secs(5), "stop joined every thread");
    assert!(stats.dropped > 0, "A's unwritable replies are counted: {stats:?}");
    assert_eq!(stats.errors, 0, "and are not failures of the server: {stats:?}");
    drop(a);
    let _ = std::fs::remove_dir_all(&dir);
}
