pub mod cold_check;
pub mod edit_loop;
pub mod fleet;
pub mod signoff;
