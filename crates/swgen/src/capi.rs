//! Generated C API for memory-mapped cores.
//!
//! For AXI-Lite cores, the paper generates "the API to configure and
//! invoke the accelerators from a software application". We emit the same
//! artifact: a header + implementation with one `<core>_start(...)` call
//! per core, register offsets from interface synthesis, and the standard
//! ap_ctrl start/done handshake.

use accelsoc_hls::report::HlsReport;
use std::fmt::Write;

/// Generate the C header for one core.
pub fn generate_header(report: &HlsReport, base_addr: u64) -> String {
    let mut s = String::new();
    let k = &report.kernel;
    let upper = k.to_uppercase();
    let _ = writeln!(s, "// Auto-generated API for core `{k}` — do not edit");
    let _ = writeln!(s, "#ifndef {upper}_H");
    let _ = writeln!(s, "#define {upper}_H");
    let _ = writeln!(s, "#include <stdint.h>");
    let _ = writeln!(s, "#define {upper}_BASE 0x{base_addr:08X}u");
    for r in &report.interface.axilite_registers {
        let _ = writeln!(
            s,
            "#define {upper}_REG_{} 0x{:02X}u",
            r.name.to_uppercase(),
            r.offset
        );
    }
    // Signature: inputs by value, outputs by pointer.
    let ins: Vec<String> = report
        .interface
        .axilite_registers
        .iter()
        .filter(|r| r.host_writable && !is_ctrl(&r.name))
        .map(|r| format!("uint32_t {}", r.name))
        .collect();
    let outs: Vec<String> = report
        .interface
        .axilite_registers
        .iter()
        .filter(|r| !r.host_writable)
        .map(|r| format!("uint32_t *{}", r.name))
        .collect();
    let args = ins
        .iter()
        .chain(outs.iter())
        .cloned()
        .collect::<Vec<_>>()
        .join(", ");
    let _ = writeln!(s, "int {k}_run({args});");
    let _ = writeln!(s, "#endif // {upper}_H");
    s
}

/// Generate the C implementation for one core. (The base address lives in
/// the header; the implementation references it by macro.)
pub fn generate_impl(report: &HlsReport) -> String {
    let mut s = String::new();
    let k = &report.kernel;
    let upper = k.to_uppercase();
    let _ = writeln!(s, "#include \"{k}.h\"");
    let _ = writeln!(s, "#include \"mmio.h\"");
    let _ = writeln!(s);
    let ins: Vec<&str> = report
        .interface
        .axilite_registers
        .iter()
        .filter(|r| r.host_writable && !is_ctrl(&r.name))
        .map(|r| r.name.as_str())
        .collect();
    let outs: Vec<&str> = report
        .interface
        .axilite_registers
        .iter()
        .filter(|r| !r.host_writable)
        .map(|r| r.name.as_str())
        .collect();
    let sig = ins
        .iter()
        .map(|n| format!("uint32_t {n}"))
        .chain(outs.iter().map(|n| format!("uint32_t *{n}")))
        .collect::<Vec<_>>()
        .join(", ");
    let _ = writeln!(s, "int {k}_run({sig}) {{");
    let _ = writeln!(s, "    volatile uint32_t *base = mmio_map({upper}_BASE);");
    for n in &ins {
        let _ = writeln!(s, "    base[{upper}_REG_{} / 4] = {n};", n.to_uppercase());
    }
    let _ = writeln!(s, "    base[{upper}_REG_CTRL / 4] = 0x1; // ap_start");
    let _ = writeln!(
        s,
        "    while (!(base[{upper}_REG_CTRL / 4] & 0x2)) {{ /* poll ap_done */ }}"
    );
    for n in &outs {
        let _ = writeln!(s, "    *{n} = base[{upper}_REG_{} / 4];", n.to_uppercase());
    }
    let _ = writeln!(s, "    return 0;");
    let _ = writeln!(s, "}}");
    s
}

fn is_ctrl(name: &str) -> bool {
    matches!(name, "CTRL" | "GIE" | "IER" | "ISR")
}

#[cfg(test)]
mod tests {
    use super::*;
    use accelsoc_hls::project::{synthesize_kernel, HlsOptions};
    use accelsoc_kernel::builder::*;
    use accelsoc_kernel::types::Ty;

    fn adder_report() -> HlsReport {
        let k = KernelBuilder::new("add")
            .scalar_in("a", Ty::U32)
            .scalar_in("b", Ty::U32)
            .scalar_out("ret", Ty::U32)
            .push(assign("ret", add(var("a"), var("b"))))
            .build();
        std::sync::Arc::unwrap_or_clone(
            synthesize_kernel(&k, &HlsOptions::default())
                .unwrap()
                .report,
        )
    }

    #[test]
    fn header_declares_base_registers_and_signature() {
        let h = generate_header(&adder_report(), 0x43C0_0000);
        assert!(h.contains("#define ADD_BASE 0x43C00000u"));
        assert!(h.contains("#define ADD_REG_A 0x10u"));
        assert!(h.contains("#define ADD_REG_B 0x18u"));
        assert!(h.contains("#define ADD_REG_RET 0x20u"));
        assert!(h.contains("int add_run(uint32_t a, uint32_t b, uint32_t *ret);"));
        assert!(h.contains("#ifndef ADD_H"));
    }

    #[test]
    fn implementation_follows_start_poll_read_protocol() {
        let c = generate_impl(&adder_report());
        assert!(c.contains("base[ADD_REG_A / 4] = a;"));
        assert!(c.contains("ap_start"));
        assert!(c.contains("poll ap_done"));
        assert!(c.contains("*ret = base[ADD_REG_RET / 4];"));
        // Writes happen before start, reads after the poll loop.
        let start = c.find("ap_start").unwrap();
        assert!(c.find("= a;").unwrap() < start);
        assert!(c.find("*ret =").unwrap() > c.find("poll").unwrap());
    }

    #[test]
    fn control_registers_not_in_signature() {
        let h = generate_header(&adder_report(), 0x43C0_0000);
        assert!(!h.contains("uint32_t CTRL"));
        assert!(!h.contains("uint32_t GIE"));
    }
}
