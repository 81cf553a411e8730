/* Compiled replay of the element policies (see _kernels.py).
 *
 * One loop, replay(), serves FIFO, LIFO, LRB and MRB; it branches only on
 * the selection order.  Parcels live in flat pools indexed by creation
 * order, and each vertex keeps the pool indices of its parcels in one
 * growable array, a buf.  FIFO takes from the live span's front and LIFO
 * from its back, and both add at the back.  LRB and MRB keep each array as a
 * binary heap keyed on the signed birth time, following CPython's heapq step
 * for step, so each heap has the layout the pure-Python engine builds.
 *
 * A self-interaction selects only among the parcels present before it: the
 * loop parks its selection on a spare buffer (index nv) and moves it to the
 * vertex, in selection order, once selection ends.
 *
 * The loop reads the stream as one flat array of checked records, four
 * doubles each (source, dest, time, quantity).  It ends by writing every
 * vertex's parcels in buffer order, vertex by vertex, with counts[v] parcels
 * for vertex v, and returns the number of live parcels, or -1 when memory
 * runs out.  The file is built as a Python extension module, whose one
 * binding, replay(), reads the Interaction records into that array, runs the
 * loop and returns the engine's buffers, built from the parcels.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Parcel order in a heap: key, then origin, then creation sequence (heapq's
 * list order).  A parcel's sequence number is its pool index. */
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

/* heapq._siftup: sink the root to a leaf along smaller children, then back up.
 * Inlined into the replay loop, it made the 1M LRB replay 25% slower. */
static __attribute__((noinline)) void sift_from_root(int64_t *h, int64_t m, const order *o)
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

/* One vertex's parcels: the pool indices a[lo], ..., a[lo + n - 1], in an
 * array of cap slots.  Only a FIFO queue moves lo. */
typedef struct {
    int64_t *a, lo, n, cap;
} buf;

/* Add parcel j at the end of b and, given a heap order, sift it into place;
 * -1 when memory runs out.  With no slot left at the end, the array doubles
 * when at least half full, or else the live span slides to the start: sliding
 * alone would go quadratic on a long FIFO queue. */
static int append(buf *b, int64_t j, const order *heap)
{
    if (b->lo + b->n == b->cap) {
        if (2 * b->n >= b->cap) {
            int64_t cap = b->cap ? 2 * b->cap : 4;
            int64_t *a = realloc(b->a, cap * sizeof *a);
            if (!a)
                return -1;
            b->a = a;
            b->cap = cap;
        } else {
            memmove(b->a, b->a + b->lo, b->n * sizeof *b->a);
            b->lo = 0;
        }
    }
    b->a[b->lo + b->n] = j;
    if (heap)
        sift_toward_root(b->a, b->n, heap);
    b->n++;
    return 0;
}

/* Replay the n records under one selection order: FIFO takes a buffer's
 * front, LIFO its back, and with a sign (1 for LRB, -1 for MRB) each buffer
 * is a heap keyed on the signed birth time. */
static int64_t replay(int64_t n, const double *rec, int64_t nv, int lifo, double sign,
                      double eps, double *totals, double *generated, double *cum_nb,
                      int64_t *out_orig, double *out_key, double *out_qty, int64_t *out_seq,
                      int64_t *counts)
{
    int64_t pcap = 2 * n + 1; /* at most one split and one newborn per interaction */
    int64_t *porig = malloc(pcap * sizeof *porig);
    double *pkey = malloc(pcap * sizeof *pkey);
    double *pqty = malloc(pcap * sizeof *pqty);
    buf *b = calloc(nv + 1, sizeof *b); /* b[nv]: a self-interaction's selection */
    order o = {pkey, porig};
    const order *heap = sign ? &o : NULL;
    int64_t nalloc = 0;
    if (!porig || !pkey || !pqty || !b)
        goto fail;
    for (const double *r = rec; r < rec + 4 * n; r += 4) {
        int64_t s = (int64_t)r[0], d = (int64_t)r[1];
        buf *bs = b + s, *to = s == d ? b + nv : b + d;
        double rq = r[3], resq = rq;
        while (resq > 0.0 && bs->n > 0) {
            int64_t *end = bs->a + bs->lo + (lifo ? bs->n - 1 : 0);
            int64_t h = *end;
            double tq = pqty[h];
            if (tq - resq > eps) {
                /* split: the remainder keeps its place, a copy travels */
                pqty[h] = tq - resq;
                int64_t j = nalloc++;
                porig[j] = porig[h];
                if (heap)
                    pkey[j] = pkey[h];
                pqty[j] = resq;
                h = j;
                resq = 0.0;
            } else {
                bs->n--;
                if (heap && bs->n > 0) {
                    *end = bs->a[bs->n];
                    sift_from_root(bs->a, bs->n, heap);
                } else if (!heap && !lifo) {
                    bs->lo++;
                }
                resq -= tq;
            }
            /* the spare buffer keeps selection order, which for a heap is
             * ascending order */
            if (append(to, h, to == b + nv ? NULL : heap))
                goto fail;
        }
        for (int64_t i = 0; i < b[nv].n; i++)
            if (append(b + d, b[nv].a[i], heap))
                goto fail;
        b[nv].n = 0;
        if (resq > 0.0) {
            int64_t j = nalloc++;
            porig[j] = s;
            if (heap)
                pkey[j] = sign * r[2];
            pqty[j] = resq;
            if (append(b + d, j, heap))
                goto fail;
        }
        /* the baseline total update */
        double bal = totals[s], q = rq < bal ? rq : bal, nb = rq - q;
        totals[s] = bal - q;
        totals[d] += rq;
        if (nb > 0.0) {
            generated[s] += nb;
            *cum_nb += nb;
        }
    }
    for (int64_t v = 0, k = 0; v < nv; v++) {
        counts[v] = b[v].n;
        for (int64_t *j = b[v].a + b[v].lo; j < b[v].a + b[v].lo + b[v].n; j++, k++) {
            out_orig[k] = porig[*j];
            out_qty[k] = pqty[*j];
            if (heap) {
                out_key[k] = pkey[*j];
                out_seq[k] = *j;
            }
        }
    }
    goto done;
fail:
    nalloc = -1;
done:
    for (int64_t v = 0; b && v <= nv; v++)
        free(b[v].a);
    free(b);
    free(porig);
    free(pkey);
    free(pqty);
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

/* Output parcel k as a heapq entry [key, origin, seq, quantity, no_path] when
 * heaps is set, else as a tuple (origin, quantity, no_path), its items set in
 * place; NULL when memory runs out. */
static PyObject *parcel(Py_ssize_t k, const int64_t *orig, const double *qty, const double *key,
                        const int64_t *seq, int heaps, PyObject *no_path)
{
    PyObject *p = heaps ? PyList_New(5) : PyTuple_New(3);
    if (!p)
        return NULL;
    PyObject **x = PySequence_Fast_ITEMS(p);
    int m = 0;
    if (heaps)
        x[m++] = PyFloat_FromDouble(key[k]);
    x[m++] = PyLong_FromLongLong(orig[k]);
    if (heaps)
        x[m++] = PyLong_FromLongLong(seq[k]);
    x[m++] = PyFloat_FromDouble(qty[k]);
    x[m++] = Py_NewRef(no_path);
    while (m--)
        if (!x[m]) {
            Py_DECREF(p); /* frees the items made; a list or tuple may hold NULL */
            return NULL;
        }
    return p;
}

/* One list per vertex of its parcels in buffer order.  The collector is
 * paused meanwhile: the parcels hold no cycles, and the collections that a
 * million new containers would trigger, each scanning the stream, cost
 * several times the build. */
static PyObject *buffers(Py_ssize_t nv, const int64_t *counts, const int64_t *orig,
                         const double *qty, const double *key, const int64_t *seq,
                         int heaps, PyObject *no_path)
{
    int gc = PyGC_Disable();
    PyObject *bufs = PyList_New(nv);
    for (Py_ssize_t v = 0, k = 0; bufs && v < nv; v++) {
        PyObject *list = PyList_New(counts[v]);
        for (Py_ssize_t i = 0; list && i < counts[v]; i++, k++) {
            PyObject *p = parcel(k, orig, qty, key, seq, heaps, no_path);
            PyList_SET_ITEM(list, i, p);
            if (!p)
                Py_CLEAR(list);
        }
        PyList_SET_ITEM(bufs, v, list);
        if (!list)
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
        entries = replay(n, rec, nv, lifo, sign, eps, sums, sums + nv, &cum_nb, orig, key, qty,
                         seq, counts);
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
