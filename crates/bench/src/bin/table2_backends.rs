//! Tab. 2 harness: backend interface LoC. It has no separate smoke size.
use blueprint_bench::{tables, Run};
fn main() {
    let name = "table2_backends.txt";
    Run::from_args().emit(&tables::table2(), name, name);
}
