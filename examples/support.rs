//! Shared helpers for the WazaBee example binaries.

/// Prints a section banner.
pub fn banner(title: &str) {
    println!();
    println!("=== {title} ===");
}

/// End-of-run reporting guard for the example binaries.
///
/// Create one with [`session`] at the top of `main`. On drop — including an
/// early exit through `?` — it prints the telemetry summary, honours
/// `WAZABEE_TELEMETRY_OUT`, flushes any active flight-recorder capture and
/// reports where the artifacts went.
pub struct Session {
    _priv: (),
}

/// Starts an example session: arms the flight recorder from
/// `WAZABEE_CAPTURE_DIR`, starts the telemetry snapshot server when
/// `WAZABEE_TELEMETRY_ADDR` is set (both no-ops when unset)
/// and returns the RAII guard that emits every end-of-run report.
pub fn session() -> Session {
    match wazabee_flightrec::init_from_env() {
        Ok(true) => {
            if let Some(dir) = wazabee_flightrec::capture_dir() {
                println!("flight recorder: capturing to {}", dir.display());
            }
        }
        Ok(false) => {}
        Err(e) => eprintln!("flight recorder: could not start capture: {e}"),
    }
    match wazabee_telemetry::serve_from_env() {
        Ok(Some(addr)) => println!("telemetry snapshot server on {addr}"),
        Ok(None) => {}
        Err(e) => eprintln!("telemetry snapshot server failed to start: {e}"),
    }
    Session { _priv: () }
}

impl Drop for Session {
    fn drop(&mut self) {
        banner("telemetry");
        telemetry_footer();
        if wazabee_flightrec::is_active() {
            if let Err(e) = wazabee_flightrec::flush() {
                eprintln!("flight recorder: flush failed: {e}");
            }
            let stats = wazabee_flightrec::stats();
            if let Some(dir) = wazabee_flightrec::capture_dir() {
                println!(
                    "flight recorder: {} traces, {} frames logged, {} PCAP frames, \
                     {} IQ dumps → {}",
                    stats.traces,
                    stats.frames_logged,
                    stats.pcap_frames,
                    stats.iq_dumps,
                    dir.display()
                );
            }
        }
    }
}

/// Prints the end-of-run telemetry summary and, when `WAZABEE_TELEMETRY_OUT`
/// / `WAZABEE_TRACE_OUT` are set, dumps every metric and trace record as
/// JSONL / Chrome Trace JSON to those paths.
pub fn telemetry_footer() {
    print!("{}", wazabee_telemetry::summary());
    match wazabee_telemetry::dump_from_env() {
        Ok(true) => println!(
            "telemetry dumped to {}",
            std::env::var(wazabee_telemetry::ENV_OUT).unwrap_or_default()
        ),
        Ok(false) => {}
        Err(e) => eprintln!("telemetry dump failed: {e}"),
    }
    match wazabee_telemetry::dump_trace_from_env() {
        Ok(true) => println!(
            "chrome trace dumped to {} (load in https://ui.perfetto.dev)",
            std::env::var(wazabee_telemetry::ENV_TRACE_OUT).unwrap_or_default()
        ),
        Ok(false) => {}
        Err(e) => eprintln!("chrome trace dump failed: {e}"),
    }
}

/// Formats bytes as a hex dump line.
pub fn hex(bytes: &[u8]) -> String {
    bytes
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_formats() {
        assert_eq!(hex(&[0xDE, 0xAD]), "de ad");
        assert_eq!(hex(&[]), "");
    }
}
