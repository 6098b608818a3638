// library_churn, MiniC part: long concrete operation sequences through
// the Collections containers over one symbolic element, so dispatch and
// the byte-level heap (malloc, stores, memcpy on growth, free) do the
// work and the solver sees only a handful of distinct queries.
//
// Template holes, filled per instance: @ID@ (unique suffix), @N@ (number
// of operations, even), @H@ (@N@ / 2) and @K@ (a seeded step constant).

// Dynamic array: growth from capacity 1 through repeated doublings, a
// symbolic element at the front, then reads from both ends.
long churn_array_@ID@(void) {
    long seed = symb_long();
    struct Array *ar = array_new(1);
    array_add(ar, seed);
    for (long i = 0; i < @N@; i = i + 1) {
        array_add(ar, i * @K@);
    }
    assert(array_size(ar) == @N@ + 1);
    long *out = malloc(sizeof(long));
    array_get_at(ar, @N@, out);
    assert(*out == (@N@ - 1) * @K@);
    array_get_at(ar, 0, out);
    assert(*out == seed);
    free(out);
    array_destroy(ar);
    return 0;
}

// Singly linked list: N appends behind a symbolic head, N/2 removals
// from the front, then the survivors are checked and freed.
long churn_slist_@ID@(void) {
    long seed = symb_long();
    struct SList *l = slist_new();
    slist_add(l, seed);
    for (long i = 0; i < @N@; i = i + 1) {
        slist_add(l, i * @K@);
    }
    long *out = malloc(sizeof(long));
    slist_remove_first(l, out);
    assert(*out == seed);
    for (long j = 0; j < @H@; j = j + 1) {
        slist_remove_first(l, out);
    }
    assert(slist_size(l) == @H@);
    slist_get_first(l, out);
    assert(*out == @H@ * @K@);
    free(out);
    slist_destroy(l);
    return 0;
}
