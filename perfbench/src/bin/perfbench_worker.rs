//! Fleet worker process for the benchmark's worker-backend workload:
//! the same job/result frame protocol as the repository's `fleet_worker`
//! (one sealed job frame on stdin, heartbeat and result frames on
//! stdout), built inside this package so the benchmark controls which
//! executable it spawns.

use std::io::{stdin, stdout, Write as _};

fn main() {
    let mut input = stdin().lock();
    let mut output = stdout().lock();
    if let Err(msg) = roam_fleet::worker::serve(&mut input, &mut output) {
        let _ = output.flush();
        eprintln!("perfbench_worker: {msg}");
        std::process::exit(1);
    }
}
