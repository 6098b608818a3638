// library_churn, MiniJS part: long concrete operation sequences through
// the Buckets containers over one symbolic element, so dispatch, the
// JS runtime and the object memory model do the work and the solver
// sees only a handful of distinct queries.
//
// Template holes, filled per instance: @ID@ (unique suffix), @N@ (number
// of operations, even), @H@ (@N@ / 2), @Q@ (@N@ / 4) and @K@ (a seeded
// step constant).

// Stack: N pushes above a symbolic bottom element, then two rounds of
// N/2 pops; the bottom element must come back out last.
function churn_stack_@ID@() {
    var seed = symb_number();
    var s = stackNew();
    s.push(seed);
    for (var i = 0; i < @N@; i = i + 1) {
        s.push(i * @K@);
    }
    for (var j = 0; j < @H@; j = j + 1) {
        s.pop();
    }
    assert(s.size() === @H@ + 1);
    assert(s.peek() === (@H@ - 1) * @K@);
    for (var k = 0; k < @H@; k = k + 1) {
        s.pop();
    }
    assert(s.pop() === seed);
    assert(s.isEmpty());
}

// Queue: a symbolic head followed by N concrete elements, then N/2
// dequeues; FIFO order must hold throughout.
function churn_queue_@ID@() {
    var seed = symb_number();
    var q = queueNew();
    q.enqueue(seed);
    for (var i = 0; i < @N@; i = i + 1) {
        q.enqueue(i * @K@);
    }
    assert(q.dequeue() === seed);
    for (var j = 0; j < @H@; j = j + 1) {
        q.dequeue();
    }
    assert(q.size() === @H@);
    assert(q.peek() === @H@ * @K@);
}

// Dictionary: 2Q numeric keys written and a symbolic value under one
// more, then every even key removed and the rest read back. Removal
// scans the key list, so the cost grows with the square of Q.
function churn_dict_@ID@() {
    var seed = symb_number();
    var d = dictNew();
    for (var i = 0; i < 2 * @Q@; i = i + 1) {
        d.set(i, i * @K@ + 1);
    }
    d.set(2 * @Q@, seed);
    for (var j = 0; j < @Q@; j = j + 1) {
        d.remove(j * 2);
    }
    assert(d.size() === @Q@ + 1);
    assert(d.get(2 * @Q@) === seed);
    assert(d.get(1) === @K@ + 1);
    assert(!d.containsKey(0));
}
