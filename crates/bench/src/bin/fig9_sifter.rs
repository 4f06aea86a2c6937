//! Fig. 9 harness: Sifter reproduction over Blueprint SocialNetwork traces.
//! The full run takes well under a second, so `--smoke` runs it too.
use blueprint_bench::{figures::fig9, Run};
fn main() {
    Run::from_args().emit(&fig9::print(&fig9::run()), "fig9.txt", "fig9.txt");
}
