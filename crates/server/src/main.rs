//! `pgq-server` — serve the sqlpgq session grammar over TCP.
//!
//! ```sh
//! pgq-server                  # bind 127.0.0.1:5432-ish default
//! pgq-server 0.0.0.0:7878     # explicit bind address
//! ```
//!
//! Try it with netcat: `printf 'CREATE TABLE t (a);\nQUIT\n' | nc 127.0.0.1 7878`

use pgq_server::{Engine, Server};
use std::sync::Arc;

const DEFAULT_ADDR: &str = "127.0.0.1:7878";

fn main() {
    let addr = std::env::args()
        .nth(1)
        .unwrap_or_else(|| DEFAULT_ADDR.to_string());
    let engine = Arc::new(Engine::new());
    let server = match Server::bind(engine, &addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("!! cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    println!("-- pgq-server listening on {}", server.addr());
    println!("-- line protocol: one statement batch per line, responses end with '.'");
    // Serve until the process is killed; the accept loop owns the
    // socket and session threads are detached.
    loop {
        std::thread::park();
    }
}
