//! Regenerate paper Table 1: architectural summary of the evaluated platforms.

use spmv_archsim::platforms::PlatformId;
use spmv_bench::format::{parse_scale_arg, render_table};

fn main() {
    // Table 1 does not depend on the scale; the argument is still checked, so a
    // typo fails the same way in all six binaries.
    parse_scale_arg(spmv_matrices::suite::Scale::Small);
    let header = [
        "System",
        "Sockets",
        "Cores/Socket",
        "Clock (GHz)",
        "DP Gflop/s (system)",
        "On-chip (MB)",
        "DRAM GB/s (system)",
        "Flop:Byte",
        "Socket W",
        "System W",
    ];
    let rows: Vec<Vec<String>> = PlatformId::all()
        .iter()
        .map(|id| {
            let p = id.platform();
            vec![
                id.name().to_string(),
                p.memory.sockets.to_string(),
                p.cores_per_socket.to_string(),
                format!("{:.1}", p.clock_ghz),
                format!("{:.1}", p.peak_gflops_system()),
                format!("{:.1}", p.total_onchip_bytes() as f64 / (1024.0 * 1024.0)),
                format!("{:.1}", p.peak_gbs_system()),
                format!("{:.2}", p.system_flop_byte_ratio()),
                format!("{:.0}", p.socket_power_w),
                format!("{:.0}", p.system_power_w),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Table 1: Architectural summary of the evaluated multicore platforms",
            &header,
            &rows
        )
    );
    println!("Note: Niagara's Gflop/s figure is the 64-bit integer proxy used by the paper.");
}
