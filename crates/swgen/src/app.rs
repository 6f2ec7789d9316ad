//! Generated host application: a complete `main.c` (plus Makefile)
//! exercising the architecture — the artifact the paper's users write on
//! top of the generated `readDMA`/`writeDMA` driver API and core APIs.

use accelsoc_hls::report::HlsReport;
use accelsoc_integration::blockdesign::{BlockDesign, CellKind};
use std::fmt::Write;

/// Generate a `main.c` skeleton: opens the DMA device(s), declares
/// buffers, pushes input through the stream pipeline, and calls each
/// AXI-Lite core's generated `_run` wrapper.
pub fn generate_main_c(bd: &BlockDesign, lite_cores: &[&HlsReport]) -> String {
    let mut s = String::new();
    let w = &mut s;
    let _ = writeln!(
        w,
        "/* Auto-generated host application for `{}` — edit freely. */",
        bd.name
    );
    let _ = writeln!(w, "#include <stdio.h>");
    let _ = writeln!(w, "#include <stdint.h>");
    let _ = writeln!(w, "#include <stdlib.h>");
    let _ = writeln!(w, "#include \"dma_driver.h\" /* readDMA / writeDMA */");
    for r in lite_cores {
        let _ = writeln!(w, "#include \"{}.h\"", r.kernel);
    }
    let _ = writeln!(w);
    let _ = writeln!(w, "#define BUF_BYTES (1024 * 1024)");
    let _ = writeln!(w);
    let _ = writeln!(w, "int main(void) {{");
    let dma_count = bd
        .cells
        .iter()
        .filter(|c| matches!(c.kind, CellKind::AxiDma))
        .count();
    for i in 0..dma_count {
        let _ = writeln!(w, "    int dma{i} = openDMA(\"/dev/dma{i}\");");
        let _ = writeln!(
            w,
            "    if (dma{i} < 0) {{ perror(\"/dev/dma{i}\"); return 1; }}"
        );
    }
    if dma_count > 0 {
        let _ = writeln!(w, "    uint8_t *in_buf  = malloc(BUF_BYTES);");
        let _ = writeln!(w, "    uint8_t *out_buf = malloc(BUF_BYTES);");
        let _ = writeln!(w, "    /* TODO: fill in_buf with application data. */");
        let _ = writeln!(w, "    writeDMA(dma0, in_buf, BUF_BYTES);");
        let _ = writeln!(w, "    readDMA(dma0, out_buf, BUF_BYTES);");
    }
    for r in lite_cores {
        let ins: Vec<&str> = r
            .interface
            .axilite_registers
            .iter()
            .filter(|x| {
                x.host_writable && !matches!(x.name.as_str(), "CTRL" | "GIE" | "IER" | "ISR")
            })
            .map(|x| x.name.as_str())
            .collect();
        let outs: Vec<&str> = r
            .interface
            .axilite_registers
            .iter()
            .filter(|x| !x.host_writable)
            .map(|x| x.name.as_str())
            .collect();
        for o in &outs {
            let _ = writeln!(w, "    uint32_t {}_{o};", r.kernel);
        }
        let args = ins
            .iter()
            .map(|n| format!("/* {n} */ 0"))
            .chain(outs.iter().map(|o| format!("&{}_{o}", r.kernel)))
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(w, "    {}_run({args});", r.kernel);
    }
    for i in 0..dma_count {
        let _ = writeln!(w, "    closeDMA(dma{i});");
    }
    let _ = writeln!(w, "    return 0;");
    let _ = writeln!(w, "}}");
    s
}

/// Generate a cross-compiling Makefile for the generated sources.
pub fn generate_makefile(bd: &BlockDesign, lite_cores: &[&HlsReport]) -> String {
    let mut s = String::new();
    let w = &mut s;
    let objs: Vec<String> = lite_cores
        .iter()
        .map(|r| format!("{}.o", r.kernel))
        .collect();
    let _ = writeln!(w, "# Auto-generated Makefile for `{}`", bd.name);
    let _ = writeln!(w, "CROSS   ?= arm-linux-gnueabihf-");
    let _ = writeln!(w, "CC      := $(CROSS)gcc");
    let _ = writeln!(w, "CFLAGS  := -O2 -Wall");
    let _ = writeln!(w, "OBJS    := main.o dma_driver.o {}", objs.join(" "));
    let _ = writeln!(w);
    let _ = writeln!(w, "{}.elf: $(OBJS)", bd.name);
    let _ = writeln!(w, "\t$(CC) $(CFLAGS) -o $@ $^");
    let _ = writeln!(w);
    let _ = writeln!(w, "%.o: %.c");
    let _ = writeln!(w, "\t$(CC) $(CFLAGS) -c -o $@ $<");
    let _ = writeln!(w);
    let _ = writeln!(w, "clean:");
    let _ = writeln!(w, "\trm -f *.o {}.elf", bd.name);
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use accelsoc_hls::project::{synthesize_kernel, HlsOptions};
    use accelsoc_integration::blockdesign::Cell;
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

    fn design() -> BlockDesign {
        let mut bd = BlockDesign::new("sys");
        bd.add_cell(Cell {
            name: "axi_dma_0".into(),
            kind: CellKind::AxiDma,
        });
        bd
    }

    #[test]
    fn main_c_opens_dma_and_calls_cores() {
        let rpt = adder_report();
        let c = generate_main_c(&design(), &[&rpt]);
        assert!(c.contains("openDMA(\"/dev/dma0\")"));
        assert!(c.contains("writeDMA(dma0"));
        assert!(c.contains("readDMA(dma0"));
        assert!(c.contains("add_run(/* a */ 0, /* b */ 0, &add_ret);"));
        assert!(c.contains("#include \"add.h\""));
        assert!(c.contains("closeDMA(dma0)"));
        // Braces balanced.
        assert_eq!(c.matches('{').count(), c.matches('}').count());
    }

    #[test]
    fn main_c_without_dma_skips_buffers() {
        let rpt = adder_report();
        let bd = BlockDesign::new("lite_only");
        let c = generate_main_c(&bd, &[&rpt]);
        assert!(!c.contains("openDMA"));
        assert!(!c.contains("writeDMA(dma"));
        assert!(c.contains("add_run"));
    }

    #[test]
    fn makefile_lists_all_objects() {
        let rpt = adder_report();
        let m = generate_makefile(&design(), &[&rpt]);
        assert!(m.contains("main.o dma_driver.o add.o"));
        assert!(m.contains("arm-linux-gnueabihf-"));
        assert!(m.contains("sys.elf: $(OBJS)"));
        assert!(m.contains("clean:"));
    }
}
