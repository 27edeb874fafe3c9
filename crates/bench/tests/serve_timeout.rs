//! `repro serve --timeout-ms` accepts only timeouts that `repro work`'s
//! once-a-second heartbeat can meet: at least three beats (3000 ms).

use std::io::{BufRead, BufReader, Read};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

fn serve(timeout_ms: &str) -> Child {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["serve", "--listen", "127.0.0.1:0"])
        .args(["--timeout-ms", timeout_ms])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn repro serve")
}

/// The child's exit status, or `None` (after killing it) if it is still
/// running when `limit` runs out.
fn exit_within(child: &mut Child, limit: Duration) -> Option<ExitStatus> {
    let deadline = Instant::now() + limit;
    loop {
        if let Some(status) = child.try_wait().expect("poll repro serve") {
            return Some(status);
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            return None;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn a_timeout_under_three_heartbeats_is_refused() {
    let mut child = serve("500");
    let status = exit_within(&mut child, Duration::from_secs(10))
        .expect("`repro serve --timeout-ms 500` was still serving after 10 s");
    assert!(!status.success(), "{status}");
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    assert!(stderr.contains("at least 3000 ms"), "{stderr}");
}

#[test]
fn three_heartbeats_is_accepted() {
    let mut child = serve("3000");
    let mut line = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut line)
        .expect("read stdout");
    let _ = child.kill();
    let _ = child.wait();
    assert!(line.starts_with("serving campaign dispatch on"), "{line:?}");
}
