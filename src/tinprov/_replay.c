/* Compiled replay kernels for the element policies (see _kernels.py).
 *
 * Parcels live in flat pools indexed by creation order.  The receipt kernel
 * threads them into per-vertex linked lists (a queue for FIFO, a stack with
 * its top at the head for LIFO); the generation-time kernel keeps per-vertex
 * binary heaps in one index arena, keyed on the signed birth time.  The heap
 * code follows CPython's heapq step for step, so each heap has the layout the
 * pure-Python engine builds.
 *
 * A self-interaction selects only among the parcels present before it: each
 * kernel parks the selection on a spare buffer (index nv) and moves it to the
 * destination, in selection order, once selection ends.
 *
 * Both kernels read the stream as one flat array of checked records, four
 * doubles each (source, dest, time, quantity).  They end by writing every
 * vertex's parcels in buffer order, vertex by vertex, with counts[v] parcels
 * for vertex v, and return the number of live parcels, or -1 when memory
 * runs out.  The file is built as a Python extension module, whose one
 * binding, replay(), reads the Interaction records into that array, runs a
 * kernel and returns the engine's buffers, built from the parcels.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Append parcel j to d's buffer: at the tail (FIFO) or on top (LIFO). */
static void put(int64_t j, int64_t d, int lifo, int64_t *next, int64_t *head, int64_t *tail)
{
    if (lifo) {
        next[j] = head[d];
        head[d] = j;
    } else {
        next[j] = -1;
        if (tail[d] < 0)
            head[d] = j;
        else
            next[tail[d]] = j;
        tail[d] = j;
    }
}

/* Baseline total update shared by both kernels. */
static void settle(int64_t s, int64_t d, double rq, double *totals, double *generated,
                   double *cum_nb)
{
    double bs = totals[s];
    double q = rq < bs ? rq : bs;
    totals[s] = bs - q;
    totals[d] += rq;
    double nb = rq - q;
    if (nb > 0.0) {
        generated[s] += nb;
        *cum_nb += nb;
    }
}

static int64_t replay_receipt(int64_t n, const double *rec, int64_t nv, int lifo, double eps,
                              double *totals, double *generated, double *cum_nb,
                              int64_t *out_orig, double *out_qty, int64_t *counts)
{
    int64_t pcap = 2 * n + 1; /* at most one split and one newborn per interaction */
    int64_t *porig = malloc(pcap * sizeof *porig);
    double *pqty = malloc(pcap * sizeof *pqty);
    int64_t *next = malloc(pcap * sizeof *next);
    int64_t *head = malloc((nv + 1) * sizeof *head);
    int64_t *tail = malloc((nv + 1) * sizeof *tail);
    int64_t nalloc = 0;
    if (!porig || !pqty || !next || !head || !tail) {
        nalloc = -1;
        goto done;
    }
    for (int64_t v = 0; v <= nv; v++)
        head[v] = tail[v] = -1;
    for (const double *r = rec; r < rec + 4 * n; r += 4) {
        int64_t s = (int64_t)r[0], d = (int64_t)r[1];
        /* the spare list nv is always a queue, so it keeps selection order */
        int64_t to = s == d ? nv : d;
        int to_lifo = s == d ? 0 : lifo;
        double resq = r[3];
        while (resq > 0.0 && head[s] >= 0) {
            int64_t h = head[s];
            double tq = pqty[h];
            if (tq - resq > eps) {
                /* split: the remainder stays at the selected end */
                pqty[h] = tq - resq;
                int64_t j = nalloc++;
                porig[j] = porig[h];
                pqty[j] = resq;
                put(j, to, to_lifo, next, head, tail);
                resq = 0.0;
            } else {
                head[s] = next[h];
                if (head[s] < 0)
                    tail[s] = -1;
                put(h, to, to_lifo, next, head, tail);
                resq -= tq;
            }
        }
        while (head[nv] >= 0) {
            int64_t j = head[nv];
            head[nv] = next[j];
            put(j, d, lifo, next, head, tail);
        }
        tail[nv] = -1;
        if (resq > 0.0) {
            int64_t j = nalloc++;
            porig[j] = s;
            pqty[j] = resq;
            put(j, d, lifo, next, head, tail);
        }
        settle(s, d, r[3], totals, generated, cum_nb);
    }
    /* a LIFO list runs top to bottom, so it is written back to front */
    int64_t k = 0;
    for (int64_t v = 0; v < nv; v++) {
        int64_t m = 0;
        for (int64_t j = head[v]; j >= 0; j = next[j])
            m++;
        counts[v] = m;
        int64_t pos = lifo ? k + m - 1 : k, step = lifo ? -1 : 1;
        for (int64_t j = head[v]; j >= 0; j = next[j], pos += step) {
            out_orig[pos] = porig[j];
            out_qty[pos] = pqty[j];
        }
        k += m;
    }
done:
    free(porig);
    free(pqty);
    free(next);
    free(head);
    free(tail);
    return nalloc;
}

/* Parcel order: key, then origin, then creation sequence (heapq's list
 * order).  A parcel's sequence number is its pool index. */
typedef struct {
    const double *key;
    const int64_t *orig;
} order;

static int less(const order *o, int64_t a, int64_t b)
{
    if (o->key[a] != o->key[b])
        return o->key[a] < o->key[b];
    if (o->orig[a] != o->orig[b])
        return o->orig[a] < o->orig[b];
    return a < b;
}

/* heapq._siftdown: move the item at pos up towards the root. */
static void sift_toward_root(int64_t *h, int64_t pos, const order *o)
{
    int64_t item = h[pos];
    while (pos > 0) {
        int64_t parent = (pos - 1) >> 1;
        if (!less(o, item, h[parent]))
            break;
        h[pos] = h[parent];
        pos = parent;
    }
    h[pos] = item;
}

/* heapq._siftup: sink the root to a leaf along smaller children, then back up. */
static void sift_from_root(int64_t *h, int64_t m, const order *o)
{
    int64_t item = h[0], pos = 0, child = 1;
    while (child < m) {
        if (child + 1 < m && !less(o, h[child], h[child + 1]))
            child++;
        h[pos] = h[child];
        pos = child;
        child = 2 * pos + 1;
    }
    h[pos] = item;
    sift_toward_root(h, pos, o);
}

typedef struct {
    int64_t *a, size, end; /* arena, its capacity, first unused slot */
    int64_t *off, *sz, *cap;
} arena;

/* heapq.heappop: remove the root of v's heap. */
static void pop(arena *A, int64_t v, const order *o)
{
    int64_t *h = A->a + A->off[v];
    int64_t m = --A->sz[v];
    if (m > 0) {
        h[0] = h[m];
        sift_from_root(h, m, o);
    }
}

/* Push parcel j onto d's heap, moving d's span to a doubled one when full. */
static int push(arena *A, int64_t d, int64_t j, const order *o)
{
    if (A->sz[d] == A->cap[d]) {
        int64_t newcap = A->cap[d] ? 2 * A->cap[d] : 4;
        if (A->end + newcap > A->size) {
            int64_t size = 2 * A->size + newcap;
            int64_t *grown = realloc(A->a, size * sizeof *grown);
            if (!grown)
                return -1;
            A->a = grown;
            A->size = size;
        }
        memcpy(A->a + A->end, A->a + A->off[d], A->sz[d] * sizeof *A->a);
        A->off[d] = A->end;
        A->cap[d] = newcap;
        A->end += newcap;
    }
    int64_t *h = A->a + A->off[d];
    h[A->sz[d]] = j;
    sift_toward_root(h, A->sz[d]++, o);
    return 0;
}

static int64_t replay_gentime(int64_t n, const double *rec, int64_t nv, double sign, double eps,
                              double *totals, double *generated, double *cum_nb,
                              int64_t *out_orig, double *out_key, double *out_qty,
                              int64_t *out_seq, int64_t *counts)
{
    int64_t pcap = 2 * n + 1;
    int64_t *porig = malloc(pcap * sizeof *porig);
    double *pkey = malloc(pcap * sizeof *pkey);
    double *pqty = malloc(pcap * sizeof *pqty);
    arena A = {NULL, 8 * n + 4 * nv + 64, 0, NULL, NULL, NULL};
    A.a = malloc(A.size * sizeof *A.a);
    A.off = calloc(nv + 1, sizeof *A.off);
    A.sz = calloc(nv + 1, sizeof *A.sz);
    A.cap = calloc(nv + 1, sizeof *A.cap);
    order o = {pkey, porig};
    int64_t nalloc = 0;
    if (!porig || !pkey || !pqty || !A.a || !A.off || !A.sz || !A.cap)
        goto fail;
    for (const double *r = rec; r < rec + 4 * n; r += 4) {
        int64_t s = (int64_t)r[0], d = (int64_t)r[1];
        int64_t to = s == d ? nv : d;
        double resq = r[3];
        while (resq > 0.0 && A.sz[s] > 0) {
            int64_t top = A.a[A.off[s]];
            double tq = pqty[top];
            if (tq - resq > eps) {
                /* split: the remainder keeps its heap slot at the source */
                pqty[top] = tq - resq;
                int64_t j = nalloc++;
                porig[j] = porig[top];
                pkey[j] = pkey[top];
                pqty[j] = resq;
                resq = 0.0;
                top = j;
            } else {
                pop(&A, s, &o);
                resq -= tq;
            }
            if (push(&A, to, top, &o))
                goto fail;
        }
        /* the spare heap pops in selection order, which is ascending order */
        while (A.sz[nv] > 0) {
            int64_t j = A.a[A.off[nv]];
            pop(&A, nv, &o);
            if (push(&A, d, j, &o))
                goto fail;
        }
        if (resq > 0.0) {
            int64_t j = nalloc++;
            porig[j] = s;
            pkey[j] = sign * r[2];
            pqty[j] = resq;
            if (push(&A, d, j, &o))
                goto fail;
        }
        settle(s, d, r[3], totals, generated, cum_nb);
    }
    int64_t k = 0;
    for (int64_t v = 0; v < nv; v++) {
        counts[v] = A.sz[v];
        for (int64_t i = 0; i < A.sz[v]; i++, k++) {
            int64_t j = A.a[A.off[v] + i];
            out_orig[k] = porig[j];
            out_key[k] = pkey[j];
            out_qty[k] = pqty[j];
            out_seq[k] = j;
        }
    }
    goto done;
fail:
    nalloc = -1;
done:
    free(porig);
    free(pkey);
    free(pqty);
    free(A.a);
    free(A.off);
    free(A.sz);
    free(A.cap);
    return nalloc;
}

/* Whether x, a record's source or dest, is an integer in [0, nv); NaN is not. */
static int is_vertex(double x, Py_ssize_t nv)
{
    return x >= 0 && x < nv && x == (double)(int64_t)x;
}

/* The n records of the tuple stream as four doubles each, or NULL with an
 * exception set.  Each record is read as a tuple, whose fields cannot change
 * while they are converted. */
static double *read_stream(PyObject *stream, Py_ssize_t n, Py_ssize_t nv)
{
    double *rec = malloc((4 * n + 1) * sizeof *rec);
    if (!rec)
        return (double *)PyErr_NoMemory();
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *r = PyTuple_GET_ITEM(stream, i);
        r = PyTuple_Check(r) ? Py_NewRef(r) : PySequence_Tuple(r);
        if (!r)
            goto fail;
        double *x = rec + 4 * i;
        int ok = PyTuple_GET_SIZE(r) == 4;
        if (!ok)
            PyErr_Format(PyExc_ValueError, "record %zd has %zd fields, not 4", i,
                         PyTuple_GET_SIZE(r));
        for (int k = 0; ok && k < 4; k++)
            ok = (x[k] = PyFloat_AsDouble(PyTuple_GET_ITEM(r, k))) != -1.0 || !PyErr_Occurred();
        Py_DECREF(r);
        if (!ok)
            goto fail;
        if (!is_vertex(x[0], nv) || !is_vertex(x[1], nv)) {
            PyErr_Format(PyExc_IndexError, "record %zd: vertex index not an integer in [0, %zd)",
                         i, nv);
            goto fail;
        }
    }
    return rec;
fail:
    free(rec);
    return NULL;
}

/* A list of the n doubles at x. */
static PyObject *floats(const double *x, Py_ssize_t n)
{
    PyObject *list = PyList_New(n);
    for (Py_ssize_t i = 0; list && i < n; i++) {
        PyObject *f = PyFloat_FromDouble(x[i]);
        PyList_SET_ITEM(list, i, f);
        if (!f)
            Py_CLEAR(list); /* a list may hold NULL items while it is freed */
    }
    return list;
}

/* One list per vertex of its parcels in buffer order: heapq entries [key,
 * origin, seq, quantity, no_path] when heaps is set, else (origin, quantity,
 * no_path) tuples.  The collector is paused meanwhile: the parcels hold no
 * cycles, and the collections that a million new containers would trigger,
 * each scanning the stream, cost several times the build. */
static PyObject *buffers(Py_ssize_t nv, const int64_t *counts, const int64_t *orig,
                         const double *qty, const double *key, const int64_t *seq,
                         int heaps, PyObject *no_path)
{
    int gc = PyGC_Disable();
    PyObject *bufs = PyList_New(nv);
    for (Py_ssize_t v = 0, k = 0; bufs && v < nv; v++) {
        PyObject *buf = PyList_New(counts[v]);
        for (Py_ssize_t i = 0; buf && i < counts[v]; i++, k++) {
            PyObject *p = heaps ? Py_BuildValue("[dLLdO]", key[k], (long long)orig[k],
                                                 (long long)seq[k], qty[k], no_path)
                                 : Py_BuildValue("(LdO)", (long long)orig[k], qty[k], no_path);
            PyList_SET_ITEM(buf, i, p);
            if (!p)
                Py_CLEAR(buf);
        }
        PyList_SET_ITEM(bufs, v, buf);
        if (!buf)
            Py_CLEAR(bufs);
    }
    if (gc)
        PyGC_Enable();
    return bufs;
}

/* replay(stream, nv, policy, eps, no_path) returns (totals, generated,
 * cumulative_newborn, entries, buffers); see ElementEngine.run. */
static PyObject *py_replay(PyObject *self, PyObject *args)
{
    PyObject *stream, *no_path;
    Py_ssize_t nv;
    const char *policy;
    double eps, cum_nb = 0.0;
    if (!PyArg_ParseTuple(args, "OnsdO", &stream, &nv, &policy, &eps, &no_path))
        return NULL;
    int lifo = !strcmp(policy, "lifo"); /* sign 0: fifo or lifo */
    double sign = !strcmp(policy, "lrb") ? 1.0 : !strcmp(policy, "mrb") ? -1.0 : 0.0;
    if (!sign && !lifo && strcmp(policy, "fifo"))
        return PyErr_Format(PyExc_ValueError, "no replay kernel for policy %s", policy);
    if (!PyList_Check(stream) && !PyTuple_Check(stream))
        return PyErr_Format(PyExc_TypeError, "stream must be a list or tuple, not %.100s",
                            Py_TYPE(stream)->tp_name);
    stream = PySequence_Tuple(stream); /* a list could change while it is read */
    if (!stream)
        return NULL;
    Py_ssize_t n = PyTuple_GET_SIZE(stream);
    double *rec = read_stream(stream, n, nv);
    Py_DECREF(stream);
    if (!rec)
        return NULL;
    /* sums: the totals, then generated; each interaction adds at most 2 parcels */
    int64_t pcap = 2 * n + 1, entries = -1;
    double *sums = calloc(2 * nv + 1, sizeof *sums);
    double *qty = malloc(pcap * sizeof *qty), *key = malloc(pcap * sizeof *key);
    int64_t *orig = malloc(pcap * sizeof *orig), *seq = malloc(pcap * sizeof *seq);
    int64_t *counts = malloc((nv + 1) * sizeof *counts);
    if (sums && qty && key && orig && seq && counts) {
        Py_BEGIN_ALLOW_THREADS
        entries = sign ? replay_gentime(n, rec, nv, sign, eps, sums, sums + nv, &cum_nb, orig,
                                        key, qty, seq, counts)
                       : replay_receipt(n, rec, nv, lifo, eps, sums, sums + nv, &cum_nb, orig,
                                        qty, counts);
        Py_END_ALLOW_THREADS
    }
    free(rec); /* before the parcels are built, the replay's peak of memory */
    PyObject *bufs = entries < 0 ? PyErr_NoMemory()
                                 : buffers(nv, counts, orig, qty, key, seq, sign != 0.0, no_path);
    PyObject *result = bufs ? Py_BuildValue("NNdLN", floats(sums, nv), floats(sums + nv, nv),
                                            cum_nb, (long long)entries, bufs)
                            : NULL;
    free(sums);
    free(qty);
    free(key);
    free(orig);
    free(seq);
    free(counts);
    return result;
}

static PyMethodDef methods[] = {
    {"replay", py_replay, METH_VARARGS, NULL},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "_replay", NULL, -1, methods};

PyMODINIT_FUNC PyInit__replay(void)
{
    return PyModule_Create(&module);
}
