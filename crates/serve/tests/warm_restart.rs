//! Out-of-process warm-restart smoke test: boot the real `expred-serve`
//! binary with a data directory, pay for every row once, SIGTERM-drain
//! it, boot a second process over the same directory, and require the
//! repeat query to come back byte-identical with **zero** fresh UDF
//! evaluations — the whole point of the persistence tier.

#![cfg(unix)]

use expred_serve::HttpClient;
use expred_stats::json::JsonValue;
use std::io::{BufRead, Read};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const ROWS: u64 = 300;

/// Spawns the served binary on an ephemeral port and parses the bound
/// address from its announcement line.
fn boot(data_dir: &Path) -> (Child, SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_expred-serve"))
        .args(["--addr", "127.0.0.1:0", "--data-dir"])
        .arg(data_dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn expred-serve");
    let stdout = child.stdout.take().expect("stdout is piped");
    let mut reader = std::io::BufReader::new(stdout);
    let mut line = String::new();
    let addr = loop {
        line.clear();
        if reader.read_line(&mut line).expect("read server stdout") == 0 {
            let status = child.wait().expect("reap server");
            panic!("server exited ({status}) before announcing its address");
        }
        if let Some(rest) = line
            .trim()
            .strip_prefix("expred-serve listening on http://")
        {
            break rest.parse().expect("announced address parses");
        }
    };
    // Keep draining stdout so the child never blocks on a full pipe.
    std::thread::spawn(move || {
        let mut sink = String::new();
        while matches!(reader.read_line(&mut sink), Ok(n) if n > 0) {
            sink.clear();
        }
    });
    (child, addr)
}

/// A flag the binary no longer has stops it at startup instead of being
/// ignored: `--cache-ttl-secs` once set a row-tier TTL, and an operator
/// still passing it must learn that answers now leave only with their
/// table.
#[test]
fn a_removed_flag_is_refused_not_ignored() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_expred-serve"))
        .args(["--addr", "127.0.0.1:0", "--cache-ttl-secs", "60"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn expred-serve");
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll server exit") {
            break status;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("the server booted with --cache-ttl-secs");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    let mut pipe = child.stderr.take().expect("stderr is piped");
    pipe.read_to_string(&mut stderr).expect("read stderr");
    assert_eq!(status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown flag --cache-ttl-secs"), "{stderr}");
}

/// SIGTERM (not `Child::kill`, which is SIGKILL) so the drain path runs,
/// then waits for the clean exit the binary promises.
fn terminate(mut child: Child) {
    let status = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(status.success(), "kill -TERM failed");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match child.try_wait().expect("poll server exit") {
            Some(status) => {
                assert!(status.success(), "server exited uncleanly: {status}");
                return;
            }
            None if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(50)),
            None => {
                let _ = child.kill();
                panic!("server did not drain within 30s of SIGTERM");
            }
        }
    }
}

fn count(body: &JsonValue, field: &str) -> u64 {
    body.get("counts")
        .and_then(|c| c.get(field))
        .and_then(|v| v.as_u64())
        .unwrap_or_else(|| panic!("counts.{field} missing"))
}

fn persist_counter(metrics: &JsonValue, field: &str) -> u64 {
    metrics
        .get("tenants")
        .and_then(|t| t.get("default"))
        .and_then(|t| t.get("persist"))
        .and_then(|p| p.get(field))
        .and_then(|v| v.as_u64())
        .unwrap_or_else(|| panic!("tenant persist counter {field} missing"))
}

#[test]
fn warm_restart_answers_byte_identically_with_zero_fresh_evaluations() {
    let dir = std::env::temp_dir().join(format!("expred-warm-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create data dir");

    // β = 1.0 makes naive evaluate every row, so the warm-up pays o_e
    // for the whole table and the spill sink hears each fresh answer.
    let warm_up = format!(
        "{{\"table\":{{\"spec\":\"prosper\",\"rows\":{ROWS},\"seed\":7}},\
         \"seed\":1,\"query\":{{\"kind\":\"naive\",\"beta\":1.0}}}}"
    );
    // Q differs from the warm-up (request seed), so it is computed —
    // never memo-answered — in both processes, over a fully warm cache.
    let repeat = format!(
        "{{\"table\":{{\"spec\":\"prosper\",\"rows\":{ROWS},\"seed\":7}},\
         \"seed\":2,\"query\":{{\"kind\":\"naive\",\"beta\":1.0}}}}"
    );

    // ---- Boot 1: pay once, observe the spill, drain. ----
    let (first_child, addr) = boot(&dir);
    let first_body;
    {
        let mut client = HttpClient::connect(addr).expect("connect to first boot");
        let warm = client
            .post("/query", &warm_up)
            .expect("warm-up round-trips");
        assert_eq!(warm.status, 200, "{}", warm.body_text());
        let warm_doc = JsonValue::parse(&warm.body_text()).expect("warm-up body parses");
        assert_eq!(
            count(&warm_doc, "evaluated"),
            ROWS,
            "cold run pays o_e per row"
        );
        assert_eq!(count(&warm_doc, "reuse_hits"), 0);

        let response = client.post("/query", &repeat).expect("repeat round-trips");
        assert_eq!(response.status, 200, "{}", response.body_text());
        first_body = response.body_text();
        let doc = JsonValue::parse(&first_body).expect("repeat body parses");
        assert_eq!(
            count(&doc, "evaluated"),
            0,
            "warm session re-evaluates nothing"
        );
        assert_eq!(count(&doc, "reuse_hits"), ROWS);

        let metrics = client.get("/metrics.json").expect("metrics round-trips");
        let doc = JsonValue::parse(&metrics.body_text()).expect("metrics parse");
        assert!(
            persist_counter(&doc, "spilled_offers") >= ROWS,
            "every fresh answer was offered to the WAL"
        );
        assert_eq!(
            persist_counter(&doc, "rehydrated_rows"),
            0,
            "first boot had nothing to rehydrate"
        );
    }
    terminate(first_child);

    // ---- Boot 2: same directory, fresh process, nothing in memory. ----
    let (second_child, addr) = boot(&dir);
    {
        let mut client = HttpClient::connect(addr).expect("connect to second boot");
        let response = client.post("/query", &repeat).expect("repeat round-trips");
        assert_eq!(response.status, 200, "{}", response.body_text());
        assert_eq!(
            response.body_text(),
            first_body,
            "warm restart must serve the byte-identical answer"
        );
        // Byte-identity already implies evaluated == 0; spell the billing
        // consequence out anyway so a failure names the broken invariant.
        let doc = JsonValue::parse(&response.body_text()).expect("body parses");
        assert_eq!(count(&doc, "evaluated"), 0, "restart charged fresh o_e");
        assert_eq!(count(&doc, "reuse_hits"), ROWS);

        let metrics = client.get("/metrics.json").expect("metrics round-trips");
        let doc = JsonValue::parse(&metrics.body_text()).expect("metrics parse");
        assert!(
            persist_counter(&doc, "rehydrated_rows") >= ROWS,
            "the persisted answers were loaded back"
        );
        assert!(persist_counter(&doc, "rehydrated_namespaces") >= 1);
        assert!(
            persist_counter(&doc, "recovered_rows") >= ROWS,
            "recovery replayed the WAL/snapshot rows"
        );
    }
    terminate(second_child);

    let _ = std::fs::remove_dir_all(&dir);
}
