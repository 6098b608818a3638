//! The §4.2 bug-finding harnesses: entry programs run against the seeded
//! buggy Collections-C variants. `c_bugs.rs` checks what each one finds;
//! `bytecode_c.rs` runs them all on both evaluator backends.

// Each integration-test binary compiles its own copy of this module and
// uses a different subset of it.
#![allow(dead_code)]

use gillian_c::collections::buggy;

/// Paper bug 1: an off-by-one index overflows the array buffer.
pub const ARRAY_OFF_BY_ONE: &str = r#"
        long main() {
            struct Array *ar = array_new(2);
            array_add(ar, 1);
            array_add(ar, 2);
            array_add(ar, 3);
            return array_size(ar);
        }
    "#;

/// Paper bug 2: `array_expand` orders pointers (undefined behaviour).
pub const ARRAY_EXPAND: &str = r#"
        long main() {
            struct Array *ar = array_new(2);
            array_add(ar, 1);
            array_expand(ar);
            return 0;
        }
    "#;

/// Paper bug 3: the old test-suite idiom of ordering a freed pointer.
pub const FREED_POINTER_ORDER: &str = r#"
        long main() {
            long *p = malloc(8);
            free(p);
            long *q = malloc(8);
            // The old test-suite idiom: ordering a freed pointer.
            if (p <= q) {
                return 1;
            }
            return 0;
        }
    "#;

/// Paper bug 4, functional half: the ring buffer still behaves.
pub const RBUF_ROUND_TRIP: &str = r#"
        long main() {
            long x = symb_long();
            struct RBuf *rb = rbuf_new(4);
            rbuf_enqueue(rb, x);
            long *out = malloc(sizeof(long));
            rbuf_dequeue(rb, out);
            assert(*out == x);
            free(out);
            rbuf_destroy(rb);
            return 0;
        }
    "#;

/// Paper bug 4: the ring buffer over-allocates.
pub const RBUF_BLOCK_SIZE: &str = r#"
        long main() {
            struct RBuf *rb = rbuf_new(4);
            long *probe = rb->buffer;
            assert(block_size(probe) == 4 * sizeof(long));
            rbuf_destroy(rb);
            return 0;
        }
    "#;

/// Paper bug 5, lookup half: single-add lookups still work.
pub const TREETBL_LOOKUP: &str = r#"
        long main() {
            long k = symb_long();
            struct TreeTbl *t = treetbl_new();
            treetbl_add(t, k, 1);
            long *out = malloc(sizeof(long));
            assert(treetbl_get(t, k, out) == 0);
            free(out);
            treetbl_destroy(t);
            return 0;
        }
    "#;

/// Paper bug 5: re-adding a key inflates the size.
pub const TREETBL_READD: &str = r#"
        long main() {
            long k = symb_long();
            struct TreeTbl *t = treetbl_new();
            treetbl_add(t, k, 1);
            treetbl_add(t, k, 2);
            assert(treetbl_size(t) == 1);
            treetbl_destroy(t);
            return 0;
        }
    "#;

/// Use after free.
pub const USE_AFTER_FREE: &str = r#"
        long main() {
            struct Array *ar = array_new(2);
            long *buf = ar->buffer;
            array_destroy(ar);
            return *buf;
        }
    "#;

/// Double free.
pub const DOUBLE_FREE: &str = r#"
        long main() {
            long *p = malloc(8);
            free(p);
            free(p);
            return 0;
        }
    "#;

/// Every harness with the buggy variant it runs against.
pub fn all() -> [(&'static str, &'static str); 9] {
    [
        (buggy::ARRAY, ARRAY_OFF_BY_ONE),
        (buggy::ARRAY, ARRAY_EXPAND),
        (buggy::ARRAY, FREED_POINTER_ORDER),
        (buggy::RBUF, RBUF_ROUND_TRIP),
        (buggy::RBUF, RBUF_BLOCK_SIZE),
        (buggy::TREETBL, TREETBL_LOOKUP),
        (buggy::TREETBL, TREETBL_READD),
        (buggy::ARRAY, USE_AFTER_FREE),
        (buggy::ARRAY, DOUBLE_FREE),
    ]
}
