//! C005 fixture: transport-seam access outside the multicomputer.

fn poke(fabric: &EventFabric, dst: usize, frame: Frame) {
    fabric.push_frame(dst, 0, frame);
    let w = fabric.frame_wait(dst, 0);
    drop(w);
    let _ = fabric.pop_frame(dst, 0);
}
