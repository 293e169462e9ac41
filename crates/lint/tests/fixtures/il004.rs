//! IL004 fixture: a format magic re-spelled outside its `const …_MAGIC`
//! definition.

pub const HEADER: &[u8; 8] = b"IFWAL001";
